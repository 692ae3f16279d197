(* One benchmark run: set-up, the closed loop, and the metrics.

   The closed loop has one caller: it runs the next step only when the
   previous one has returned.  Each round runs one framework step and one
   hand-coded step of the same mesh, alternating which goes first, then
   compares the framework state with the hand state; a round whose
   relative discrepancy reaches [tolerance] (the --verify bound of bin/)
   counts as failed.  End-to-end metrics come from a run with tracing off;
   per-layer metrics from a separate traced run. *)

module Obs = Am_obs.Obs
module Counters = Am_obs.Counters
module Tracer = Am_obs.Tracer
module Profile = Am_core.Profile
module W = Workload

let now = Unix.gettimeofday
let tolerance = 1e-10

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type round = {
  fw_s : float;
  hand_s : float;
  fw_first : bool;
  traced : bool;
  cold : bool;  (** [between] disturbed the caches just before this round *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

type loop_result = { rounds : round array; attempted : int; failed : int }

let span name f = Obs.span ~cat:Tracer.Loop ("bench." ^ name) f

(* Rounds until [stop] says so, with [between] run before each round; it
   returns whether it did work that evicted the round's data from the
   caches.  On traced runs [traced_round i] picks the rounds that run with
   tracing on; tracing is left on afterwards. *)
let closed_loop ?traced_round ?(between = fun () -> false) (inst : W.inst) ~stop =
  let rounds = ref [] and attempted = ref 0 and failed = ref 0 and i = ref 0 in
  while not (stop !i) do
    let cold = between () in
    let traced =
      match traced_round with
      | Some f ->
        let on = f !i in
        Obs.set_tracing on;
        on
      | None -> false
    in
    let fw_first = !i mod 2 = 0 in
    let fw () =
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      span "fw_step" inst.W.fw_step;
      let dt = now () -. t0 in
      let g1 = Gc.quick_stat () in
      (dt, g0, g1)
    in
    let hand () =
      let t0 = now () in
      span "hand_step" inst.W.hand_step;
      now () -. t0
    in
    let (fw_s, g0, g1), hand_s =
      if fw_first then
        let f = fw () in
        (f, hand ())
      else
        let h = hand () in
        (fw (), h)
    in
    let d = span "check" inst.W.discrepancy in
    incr attempted;
    if not (d < tolerance) then incr failed;
    rounds :=
      {
        fw_s;
        hand_s;
        fw_first;
        traced;
        cold;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: !rounds;
    incr i
  done;
  if traced_round <> None then Obs.set_tracing true;
  { rounds = Array.of_list (List.rev !rounds); attempted = !attempted; failed = !failed }

let median xs = Am_util.Stats.median xs

let select f rounds = Array.of_list (List.filter f (Array.to_list rounds))

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample (the largest when there are ten or fewer).
   Returns the value and the percentile it sits at. *)
let tail xs =
  let n = Array.length xs in
  let s = Array.copy xs in
  Array.sort compare s;
  if n <= 10 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float_of_int (n - 11) /. float_of_int (n - 1))

(* hand_ratio: the median of the per-round ratios, each framework step
   over the hand step of the same round.  Pairing within a round cancels
   the host's drift, which the ratio of the two medians does not. *)
let paired_ratio rounds = median (Array.map (fun r -> r.fw_s /. r.hand_s) rounds)

let ratio_of_medians rounds =
  median (Array.map (fun r -> r.fw_s) rounds) /. median (Array.map (fun r -> r.hand_s) rounds)

(* ---- Set-up ------------------------------------------------------------ *)

let median_phase f phases = median (Array.of_list (List.map f phases))

(* The end-to-end run spends this share of its measured time on further
   set-ups, interleaved with the rounds, so the set-up median samples the
   whole run.  The traced run adds [traced_setups] after its ladder. *)
let setup_share = 0.15

let traced_setups = 3

let setup_total (p : W.phases) = p.W.create_s +. p.W.partition_s +. p.W.first_step_s

(* ---- Output ------------------------------------------------------------ *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.m_name)
          (json_float x.m_value) (json_string x.m_unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

let info_line fields =
  let field (k, v) = json_string k ^ ": " ^ v in
  "info {" ^ String.concat ", " (List.map field fields) ^ "}"

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* ---- End-to-end run ------------------------------------------------------ *)

type e2e = {
  metrics : metric list;
  attempted : int;
  failed : int;
  info : (string * string) list;
}

let end_to_end (w : W.t) ~seed ~seconds =
  let prep = w.W.prepare ~seed in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let inst, first = prep.W.setup () in
  let phases = ref [ first ] and setup_wall = ref (now () -. t0) in
  (* A set-up whenever set-ups have had less than their share of the time
     so far.  Each instance is dropped before the next round and left to
     the GC: a forced collection would cut the heap's growth short at a
     moment set by the clock, and the heap peak would vary with it. *)
  let between () =
    let t = now () in
    let due = !setup_wall < setup_share *. (t -. t0) in
    if due then begin
      phases := snd (prep.W.setup ()) :: !phases;
      setup_wall := !setup_wall +. (now () -. t)
    end;
    due
  in
  let lr = closed_loop inst ~between ~stop:(fun _ -> now () >= t_end) in
  let phases = !phases in
  (* The peak includes the instance of an interleaved set-up next to the
     running one, until the GC frees it. *)
  let heap_peak = heap_peak_mb () in
  (* A round straight after a set-up is checked but not timed: the set-up
     evicted its data from the caches. *)
  let rs = select (fun r -> not r.cold) lr.rounds in
  let fw = Array.map (fun r -> r.fw_s) rs in
  let sm = Am_util.Regress.summarize fw in
  let step_p50 = sm.Am_util.Regress.median in
  let step_tail, tail_pct = tail fw in
  let total_fw = Array.fold_left ( +. ) 0.0 fw in
  let fw_first_rs = select (fun r -> r.fw_first) rs in
  let hand_first_rs = select (fun r -> not r.fw_first) rs in
  let setup_s = median_phase setup_total phases in
  (* Absolute step times move with the load other tenants put on a shared
     host (on a 2-vCPU VM their run-to-run spread exceeded any bound the
     benchmark may set), so they are reported beside the metrics; the
     bounded metrics are the paired ratio, set-up time and heap. *)
  let metrics =
    [
      m "hand_ratio" "x" (paired_ratio rs);
      m "setup_s" "s" setup_s;
      m "heap_peak_mb" "MiB" heap_peak;
    ]
  in
  let info =
    [
      ("steps", string_of_int (Array.length fw));
      ("step_p50_s", json_float step_p50);
      ("step_tail_s", json_float step_tail);
      ("cell_steps_per_s",
        json_float (float_of_int w.W.cells *. float_of_int (Array.length fw) /. total_fw));
      ("step_p25_s", json_float sm.Am_util.Regress.p25);
      ("step_p75_s", json_float sm.Am_util.Regress.p75);
      ("step_tail_percentile", json_float tail_pct);
      ("hand_step_p50_s", json_float (median (Array.map (fun r -> r.hand_s) rs)));
      ("hand_ratio_of_medians", json_float (ratio_of_medians rs));
      ("hand_ratio_fw_first", json_float (paired_ratio fw_first_rs));
      ("hand_ratio_hand_first", json_float (paired_ratio hand_first_rs));
      ("steps_failed_frac", json_float (float_of_int lr.failed /. float_of_int lr.attempted));
      ("setups", string_of_int (List.length phases));
      ("setup_create_s", json_float (median_phase (fun p -> p.W.create_s) phases));
      ("setup_partition_s", json_float (median_phase (fun p -> p.W.partition_s) phases));
      ("setup_first_step_s", json_float (median_phase (fun p -> p.W.first_step_s) phases));
    ]
  in
  { metrics; attempted = lr.attempted; failed = lr.failed; info }

(* ---- Traced run ------------------------------------------------------------ *)

let op2_loops = [ "save_soln"; "adt_calc"; "res_calc"; "bres_calc"; "update" ]

(* OPS loop groups of the per-layer table: PdV covers the predictor and
   the corrector; every loop not named lands in [other]. *)
let ops_groups =
  [
    ("mom_vel", [ "mom_vel" ]);
    ("mom_flux", [ "mom_flux" ]);
    ("PdV", [ "PdV"; "PdV_predict" ]);
    ("accelerate", [ "accelerate" ]);
    ("ideal_gas", [ "ideal_gas" ]);
    ("calc_dt", [ "calc_dt" ]);
    ("advec_cell_x", [ "advec_cell_x" ]);
    ("advec_cell_y", [ "advec_cell_y" ]);
  ]

let counter c = float_of_int (Counters.value c)

type traced = {
  t_metrics : metric list;
  t_attempted : int;
  t_failed : int;
  t_info : (string * string) list;
  ladder_rows : Ladder.row list;
  layers : (string * (float * float)) list;
}

(* Events the traced closed loop may record before it stops: the tracer
   keeps 65536, and the ladder that follows needs room of its own. *)
let event_budget = 30_000

(* Rounds of the ladder; each times one whole step and every rung. *)
let ladder_reps = 11

let traced_run (w : W.t) ~host ~seed ~seconds ~trace_file =
  let t_start = now () in
  Obs.reset ();
  Obs.set_tracing true;
  let prep = w.W.prepare ~seed in
  let kway_s, halo_volume = prep.W.partition_probe () in
  let builds0 = counter Obs.plan_builds and colours0 = counter Obs.plan_colours in
  let inst, first = prep.W.setup () in
  let builds = counter Obs.plan_builds -. builds0 in
  let colours = counter Obs.plan_colours -. colours0 in
  let profile = inst.W.profile in
  Profile.reset profile;
  (* A counter's growth from here on, over the measured steps. *)
  let growth c =
    let c0 = counter c in
    fun () -> counter c -. c0
  in
  let hits = growth Obs.plan_hits and misses = growth Obs.plan_misses in
  let messages = growth Obs.comm_messages and bytes = growth Obs.comm_bytes in
  let exchanges = growth Obs.comm_exchanges and reductions = growth Obs.comm_reductions in
  let busy0 = Counters.valuef Obs.pool_busy_seconds
  and cap0 = Counters.valuef Obs.pool_wall_seconds in
  (* Half the remaining budget for the loop, the rest for the ladder. *)
  let t_end = now () +. Float.max 1.0 ((seconds -. (now () -. t_start)) *. 0.5) in
  let lr =
    closed_loop inst
      ~traced_round:(fun i -> i / 2 mod 2 = 0)
      ~stop:(fun i ->
        i >= 4 && (now () >= t_end || Tracer.recorded Obs.tracer >= event_budget))
  in
  let rs = lr.rounds in
  let traced_rs = select (fun r -> r.traced) rs and plain_rs = select (fun r -> not r.traced) rs in
  let n_traced = float_of_int (Array.length traced_rs) in
  let steps = float_of_int (Array.length rs) in
  let per_step v = v /. steps in
  let fw_all = Array.map (fun r -> r.fw_s) rs in
  let step_plain = median (Array.map (fun r -> r.fw_s) plain_rs) in
  let step_traced = median (Array.map (fun r -> r.fw_s) traced_rs) in
  let hand_p50 = median (Array.map (fun r -> r.hand_s) rs) in
  (* Per-loop profile of the closed loop's framework steps. *)
  let sum_entries f names =
    List.fold_left
      (fun acc n -> Option.fold ~none:acc ~some:(fun e -> acc +. f e) (Profile.find profile n))
      0.0 names
  in
  let loop_s = sum_entries (fun e -> e.Profile.seconds) in
  let loop_bytes = sum_entries (fun e -> float_of_int e.Profile.bytes) in
  let all_loops = List.map fst (Profile.to_list profile) in
  let total_loop_s = Profile.total_seconds profile in
  let total_bytes = loop_bytes all_loops in
  let op2_metrics =
    List.concat_map
      (fun n ->
        let s = if w.W.app = `Airfoil then loop_s [ n ] else 0.0 in
        let b = if w.W.app = `Airfoil then loop_bytes [ n ] else 0.0 in
        [
          m (Printf.sprintf "op2.loop.%s.s_per_step" n) "s" (per_step s);
          m (Printf.sprintf "op2.loop.%s.gbs" n) "GB/s" (if s > 0.0 then b /. s /. 1e9 else 0.0);
        ])
      op2_loops
  in
  let ops_named = List.concat_map snd ops_groups in
  let ops_metrics =
    let value names = if w.W.app = `Cloverleaf then per_step (loop_s names) else 0.0 in
    List.map
      (fun (g, names) -> m (Printf.sprintf "ops.loop.%s.s_per_step" g) "s" (value names))
      ops_groups
    @ [
        m "ops.loop.other.s_per_step" "s"
          (value (List.filter (fun n -> not (List.mem n ops_named)) all_loops));
      ]
  in

  let halo_p50 =
    let h = Obs.halo_seconds in
    if Am_obs.Histogram.count h > 0 then Am_obs.Histogram.p50 h else 0.0
  in
  let busy = Counters.valuef Obs.pool_busy_seconds -. busy0
  and cap = Counters.valuef Obs.pool_wall_seconds -. cap0 in
  (* GC per framework step, from the untraced rounds only. *)
  let gc f =
    Array.fold_left (fun acc r -> acc +. f r) 0.0 plain_rs /. float_of_int (Array.length plain_rs)
  in
  let hits = hits () and misses = misses () in
  let achieved = if total_loop_s > 0.0 then total_bytes /. total_loop_s /. 1e9 else 0.0 in
  (* Self times of the closed loop's spans, before the ladder adds its own. *)
  let events = Tracer.events Obs.tracer in
  let selfs = Spans.self_times events in
  let step_spans = List.filter (fun (e, _) -> e.Tracer.ev_name = "bench.fw_step") selfs in
  let step_total = List.fold_left (fun acc (e, _) -> acc +. e.Tracer.ev_dur) 0.0 step_spans in
  let step_self = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 step_spans in
  let layers = Spans.by_layer selfs in
  (* Loops outside the ladder enter [full] at their profiled time. *)
  let ladder = inst.W.ladder () in
  let covered = List.concat_map (fun l -> l.Ladder.covers) ladder in
  let other_s = per_step (loop_s (List.filter (fun n -> not (List.mem n covered)) all_loops)) in
  let dropped_loop = Tracer.dropped Obs.tracer in
  Tracer.write_chrome Obs.tracer ~path:(trace_file "steps");
  (* The ladder, on its own trace segment. *)
  Tracer.clear Obs.tracer;
  let rows, ladder_step_s = Ladder.measure ~reps:ladder_reps ~step:inst.W.fw_step ladder in
  let dropped = dropped_loop + Tracer.dropped Obs.tracer in
  Tracer.write_chrome Obs.tracer ~path:(trace_file "ladder");
  Obs.set_tracing false;
  let phases = first :: List.init traced_setups (fun _ -> snd (prep.W.setup ())) in
  let full_s = Ladder.sum (fun r -> r.Ladder.full_s) rows +. other_s in
  let kernel_s = Ladder.sum (fun r -> r.Ladder.kernel_s) rows in
  let dispatch_s = Ladder.sum (fun r -> r.Ladder.dispatch_s) rows in
  (* The hand rungs that could be isolated; the others are listed in info. *)
  let hand_s = Ladder.sum (fun r -> Option.value r.Ladder.hand_s ~default:0.0) rows in
  let hand_unmeasured =
    List.filter_map (fun r -> if r.Ladder.hand_s = None then Some r.Ladder.r_name else None) rows
  in
  let metrics =
    [
      m "host.copy_gbs" "GB/s" host.Host.copy_gbs;
      m "host.triad_gbs" "GB/s" host.Host.triad_gbs;
      m "host.gather_gbs" "GB/s" host.Host.gather_gbs;
      m "host.closure_call_ns" "ns" host.Host.closure_call_ns;
      m "ladder.hand_s" "s" hand_s;
      m "ladder.kernel_s" "s" kernel_s;
      m "ladder.dispatch_s" "s" dispatch_s;
      m "ladder.full_s" "s" full_s;
      m "ladder.residual_frac" "frac" ((full_s -. kernel_s -. dispatch_s) /. full_s);
      m "ladder.step_s" "s" ladder_step_s;
    ]
    @ op2_metrics @ ops_metrics
    @ [
        m "kernel.computed_bytes_per_step" "B" (per_step total_bytes);
        m "kernel.achieved_gbs" "GB/s" achieved;
        m "kernel.pct_of_triad" "%" (100.0 *. achieved /. host.Host.triad_gbs);
        m "setup.create_s" "s" (median_phase (fun p -> p.W.create_s) phases);
        m "setup.partition_s" "s" (median_phase (fun p -> p.W.partition_s) phases);
        m "setup.first_step_s" "s" (median_phase (fun p -> p.W.first_step_s) phases);
        m "mesh.partition.kway_s" "s" kway_s;
        m "mesh.partition.halo_volume" "count" (float_of_int halo_volume);
        m "op2.plan.builds" "count" builds;
        m "op2.plan.colours" "count" colours;
        m "op2.plan_cache.hit_rate" "frac"
          (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
        m "comm.messages_per_step" "count" (per_step (messages ()));
        m "comm.bytes_per_step" "B" (per_step (bytes ()));
        m "comm.exchanges_per_step" "count" (per_step (exchanges ()));
        m "comm.reductions_per_step" "count" (per_step (reductions ()));
        m "halo.exposed_s_per_step" "s" (per_step (Profile.total_halo_seconds profile));
        m "halo.overlapped_s_per_step" "s" (per_step (Profile.total_overlap_seconds profile));
        m "halo.exchange_p50_s" "s" halo_p50;
        m "pool.occupancy" "frac" (if cap > 0.0 then busy /. cap else 0.0);
        m "pool.idle_s_per_step" "s" (if n_traced > 0.0 then (cap -. busy) /. n_traced else 0.0);
        m "gc.minor_words_per_step" "words" (gc (fun r -> r.minor_words));
        m "gc.promoted_words_per_step" "words" (gc (fun r -> r.promoted_words));
        m "gc.minor_collections_per_step" "count" (gc (fun r -> float_of_int r.minor_gcs));
        m "gc.major_collections_per_step" "count" (gc (fun r -> float_of_int r.major_gcs));
        m "trace.overhead_frac" "frac" ((step_traced /. step_plain) -. 1.0);
        m "trace.residual_frac" "frac" (if step_total > 0.0 then step_self /. step_total else 0.0);
        m "trace.dropped_spans" "count" (float_of_int dropped);
      ]
  in
  let info =
    [
      ("steps", string_of_int (Array.length rs));
      ("traced_steps", string_of_int (Array.length traced_rs));
      ("step_p50_s_untraced", json_float step_plain);
      ("step_p50_s_all", json_float (median fw_all));
      ("ladder_other_s", json_float other_s);
      ("ladder_full_over_step", json_float (full_s /. ladder_step_s));
      ("ladder_hand_not_measured",
        "[" ^ String.concat ", " (List.map json_string hand_unmeasured) ^ "]");
      ("hand_step_p50_s", json_float hand_p50);
    ]
  in
  {
    t_metrics = metrics;
    t_attempted = lr.attempted;
    t_failed = lr.failed;
    t_info = info;
    ladder_rows = rows;
    layers;
  }
