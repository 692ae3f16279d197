(* Tests for the checkpoint planner (Fig 8 logic) and the fast-forward
   recovery runtime.  The "dpor" group (also under `dune build @dpor`)
   additionally exhausts a fixed crash/restart scenario over every
   delivery interleaving within a bound: wherever the deliver-step clock
   places the crash, restore-then-replay must rebuild the fault-free
   bits.  Failing schedules print a replay token (AM_SCHED=<token>). *)

module Planner = Am_checkpoint.Planner
module Runtime = Am_checkpoint.Runtime
module Descr = Am_core.Descr
module Access = Am_core.Access
module Fault = Am_simmpi.Fault
module Finding = Am_analysis.Finding
module Schedcheck = Am_schedcheck.Schedcheck
module Fa = Am_util.Fa

(* The Airfoil loop chain of Fig 8, as descriptors.  Dataset dims follow the
   figure: bounds(1), x(2), q(4), q_old(4), adt(1), res(4); rms is a global. *)
let arg ?(kind = Descr.Direct) name dim access =
  { Descr.dat_name = name; dat_id = 0; dim; access; kind }

let indirect name dim access =
  arg ~kind:(Descr.Indirect { map_name = "map"; map_index = 0; ratio = 1.0 }) name dim access

let gbl name access =
  { Descr.dat_name = name; dat_id = -1; dim = 1; access; kind = Descr.Global }

let mk name args =
  { Descr.loop_name = name; set_name = "cells"; set_size = 1000; args;
    info = Descr.default_kernel_info }

let save_soln = mk "save_soln" [ arg "q" 4 Access.Read; arg "q_old" 4 Access.Write ]

let adt_calc =
  mk "adt_calc"
    [ indirect "x" 2 Access.Read; arg "q" 4 Access.Read; arg "adt" 1 Access.Write ]

let res_calc =
  mk "res_calc"
    [
      indirect "x" 2 Access.Read;
      indirect "q" 4 Access.Read;
      indirect "adt" 1 Access.Read;
      indirect "res" 4 Access.Inc;
    ]

let bres_calc =
  mk "bres_calc"
    [
      indirect "x" 2 Access.Read;
      indirect "q" 4 Access.Read;
      indirect "adt" 1 Access.Read;
      indirect "res" 4 Access.Inc;
      arg "bounds" 1 Access.Read;
    ]

let update =
  mk "update"
    [
      arg "q_old" 4 Access.Read;
      arg "q" 4 Access.Write;
      arg "res" 4 Access.Rw;
      gbl "rms" Access.Inc;
    ]

(* One Airfoil iteration: save_soln every second inner cycle, as in Fig 8. *)
let airfoil_cycle = [ adt_calc; res_calc; bres_calc; update ]

let fig8_sequence =
  (save_soln :: airfoil_cycle) @ airfoil_cycle @ (save_soln :: airfoil_cycle)
  @ airfoil_cycle

(* ---- Planner: Fig 8's units column ---- *)

let units_at i = (Planner.plan_at fig8_sequence ~trigger:i).Planner.units

let test_fig8_units () =
  (* Loops 1..9 of the figure: save_soln adt res bres update adt res bres
     update, with units 8 12 13 13 8 12 13 13 8. *)
  let expected = [ 8; 12; 13; 13; 8; 12; 13; 13; 8 ] in
  List.iteri
    (fun i e -> Alcotest.(check int) (Printf.sprintf "units at loop %d" (i + 1)) e (units_at i))
    expected

let test_fig8_decisions_at_adt_calc () =
  (* Paper: triggering before adt_calc saves q now, drops adt, defers res to
     res_calc and q_old to update; x and bounds are never saved. *)
  let plan = Planner.plan_at fig8_sequence ~trigger:1 in
  let find name =
    List.find (fun ((d : Planner.dataset), _) -> d.Planner.ds_name = name)
      plan.Planner.decisions
    |> snd
  in
  Alcotest.(check string) "q saved now" "save" (Planner.decision_to_string (find "q"));
  Alcotest.(check string) "adt dropped" "drop" (Planner.decision_to_string (find "adt"));
  (match find "res" with
  | Planner.Save_at i ->
    Alcotest.(check string) "res deferred to res_calc" "res_calc"
      (List.nth fig8_sequence i).Descr.loop_name
  | d -> Alcotest.failf "res: expected deferral, got %s" (Planner.decision_to_string d));
  (match find "q_old" with
  | Planner.Save_at i ->
    Alcotest.(check string) "q_old deferred to update" "update"
      (List.nth fig8_sequence i).Descr.loop_name
  | d -> Alcotest.failf "q_old: expected deferral, got %s" (Planner.decision_to_string d));
  Alcotest.(check string) "x never saved" "not saved"
    (Planner.decision_to_string (find "x"));
  Alcotest.(check string) "bounds never saved" "not saved"
    (Planner.decision_to_string (find "bounds"))

let test_fig8_globals () =
  let plan = Planner.plan_at fig8_sequence ~trigger:0 in
  match List.assoc_opt "rms" plan.Planner.globals with
  | None -> Alcotest.fail "rms should be tracked"
  | Some writes ->
    Alcotest.(check bool) "rms saved at every update" true
      (List.for_all
         (fun i -> (List.nth fig8_sequence i).Descr.loop_name = "update")
         writes)

let test_period_detection () =
  (* The 9-loop cycle of the paper repeats. *)
  Alcotest.(check (option int)) "period of fig8 chain" (Some 9)
    (Planner.detect_period fig8_sequence);
  Alcotest.(check (option int)) "aperiodic" None
    (Planner.detect_period [ save_soln; adt_calc; res_calc ]);
  Alcotest.(check (option int)) "single loop repeated" (Some 1)
    (Planner.detect_period [ update; update; update ])

let test_speculative_waits_for_cheap_point () =
  (* Requested before res_calc (units 13): speculative planning waits for
     the next update/save_soln-class point (units 8). *)
  let t = Planner.speculative_trigger fig8_sequence ~requested:2 in
  Alcotest.(check bool) "cheaper trigger chosen" true
    ((Planner.plan_at fig8_sequence ~trigger:t).Planner.units = 8);
  Alcotest.(check bool) "within one period" true (t >= 2 && t < 2 + 9)

let test_best_trigger () =
  let t = Planner.best_trigger fig8_sequence in
  Alcotest.(check int) "global best is a 8-unit point" 8 (units_at t)

let test_render_figure () =
  let s = Planner.render_figure fig8_sequence in
  Alcotest.(check bool) "mentions res_calc" true
    (Str_contains.contains s "res_calc");
  Alcotest.(check bool) "has units column" true
    (Str_contains.contains s "units if triggered here")

(* ---- Runtime: checkpoint and fast-forward recovery ---- *)

(* A tiny two-dataset program: u' = u + shift; every cycle is [modify;
   accumulate]. State lives in plain arrays so snapshots are trivial. *)
type app = { u : float array; acc : float array }

let make_app () = { u = Array.init 8 Float.of_int; acc = Array.make 8 0.0 }

let app_fns app =
  {
    Runtime.fetch =
      (function
        | "u" -> Array.copy app.u
        | "acc" -> Array.copy app.acc
        | name -> Alcotest.failf "unknown dataset %s" name);
    restore =
      (fun name data ->
        match name with
        | "u" -> Array.blit data 0 app.u 0 (Array.length data)
        | "acc" -> Array.blit data 0 app.acc 0 (Array.length data)
        | name -> Alcotest.failf "unknown dataset %s" name);
  }

let modify_loop = mk "modify" [ arg "u" 1 Access.Rw ]
let accum_loop = mk "accum" [ arg "u" 1 Access.Read; arg "acc" 1 Access.Rw ]

let run_app ?(request_at = -1) session app cycles =
  for cycle = 0 to cycles - 1 do
    if cycle = request_at then Runtime.request_checkpoint session;
    Runtime.step session ~descr:modify_loop ~run:(fun () ->
        Array.iteri (fun i v -> app.u.(i) <- v +. 1.0) app.u);
    Runtime.step session ~descr:accum_loop ~run:(fun () ->
        Array.iteri (fun i v -> app.acc.(i) <- app.acc.(i) +. v) app.u)
  done

let test_runtime_checkpoint_and_recovery () =
  (* Uninterrupted run: the truth. *)
  let truth = make_app () in
  run_app (Runtime.create ~fns:(app_fns truth)) truth 10;
  (* Run with a checkpoint requested partway. *)
  let original = make_app () in
  let session = Runtime.create ~fns:(app_fns original) in
  run_app ~request_at:4 session original 10;
  Alcotest.(check bool) "checkpoint was made" true (Runtime.trigger_at session <> None);
  Alcotest.(check bool) "checkpoint unchanged results" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.acc original.acc);
  (* "Failure": restart from scratch with a recovery session. *)
  let recovered = make_app () in
  (* Wipe the state to prove recovery does not depend on it. *)
  Array.fill recovered.u 0 8 (-999.0);
  Array.fill recovered.acc 0 8 (-999.0);
  let r = Runtime.begin_recovery session ~fns:(app_fns recovered) in
  run_app r recovered 10;
  Alcotest.(check bool) "recovered u matches" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.u recovered.u);
  Alcotest.(check bool) "recovered acc matches" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.acc recovered.acc)

let test_runtime_saves_less_than_everything () =
  (* With periodic evidence the session should not snapshot datasets that
     are dead at the trigger. Here both are live, so instead check the
     trivial bound: saved units <= total state. *)
  let app = make_app () in
  let session = Runtime.create ~fns:(app_fns app) in
  run_app ~request_at:5 session app 10;
  Alcotest.(check bool) "some data saved" true (Runtime.saved_units session > 0);
  Alcotest.(check bool) "bounded by state size" true (Runtime.saved_units session <= 16)

let test_runtime_immediate_without_period () =
  (* Request a checkpoint on the very first cycle: no periodicity evidence
     yet, so everything modified is saved and the trigger is immediate. *)
  let app = make_app () in
  let session = Runtime.create ~fns:(app_fns app) in
  run_app ~request_at:0 session app 3;
  match Runtime.trigger_at session with
  | None -> Alcotest.fail "expected a checkpoint"
  | Some t -> Alcotest.(check int) "immediate trigger" 0 t

let test_file_persistence () =
  (* Checkpoint, write to disk, "reboot" (a fresh process would only have
     the file), recover from the file, finish, compare. *)
  let truth = make_app () in
  run_app (Runtime.create ~fns:(app_fns truth)) truth 10;
  let original = make_app () in
  let session = Runtime.create ~fns:(app_fns original) in
  run_app ~request_at:4 session original 10;
  let path = Filename.temp_file "am_checkpoint" ".snap" in
  Runtime.save_to_file session ~path;
  let recovered = make_app () in
  Array.fill recovered.u 0 8 (-1.0);
  Array.fill recovered.acc 0 8 (-1.0);
  let r = Runtime.recover_from_file ~path ~fns:(app_fns recovered) in
  run_app r recovered 10;
  Sys.remove path;
  Alcotest.(check bool) "recovered from file" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.acc recovered.acc)

let test_file_persistence_rejects_garbage () =
  let path = Filename.temp_file "am_checkpoint" ".snap" in
  Am_sysio.Snapshot.save path [ ("unrelated", [| 1.0 |]) ];
  (match Runtime.recover_from_file ~path ~fns:(app_fns (make_app ())) with
  | exception Am_sysio.Snapshot.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage checkpoint accepted");
  Sys.remove path;
  (* Saving before any checkpoint was made is a usage error. *)
  let s = Runtime.create ~fns:(app_fns (make_app ())) in
  match Runtime.save_to_file s ~path with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---- Snapshot damage: detected, never silently restored ---- *)

(* A session snapshot written to disk, for the damage cases below. *)
let write_snapshot () =
  let app = make_app () in
  let session = Runtime.create ~fns:(app_fns app) in
  run_app ~request_at:4 session app 10;
  let path = Filename.temp_file "am_checkpoint" ".snap" in
  Runtime.save_to_file session ~path;
  path

let expect_corrupt what path =
  match Runtime.recover_from_file ~path ~fns:(app_fns (make_app ())) with
  | exception Am_sysio.Snapshot.Corrupt _ -> Sys.remove path
  | _ ->
    Sys.remove path;
    Alcotest.failf "%s snapshot accepted" what

let test_truncated_snapshot_rejected () =
  let path = write_snapshot () in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - (String.length full / 3))));
  expect_corrupt "truncated" path

let test_bitflip_snapshot_rejected () =
  (* Flip one payload bit well past the header: only the body checksum can
     catch this — the framing still parses. *)
  let path = write_snapshot () in
  let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let pos = Bytes.length full - 11 in
  Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
  (match Runtime.recover_from_file ~path ~fns:(app_fns (make_app ())) with
  | exception Am_sysio.Snapshot.Corrupt msg ->
    Sys.remove path;
    if not (Str_contains.contains msg "checksum") then
      Alcotest.failf "corruption not attributed to the checksum: %s" msg
  | _ ->
    Sys.remove path;
    Alcotest.fail "bit-flipped snapshot silently restored")

(* ---- Restore-then-replay equivalence after a mid-period crash ---- *)

let test_restore_then_replay_after_midperiod_crash () =
  (* The run "crashes" mid-cycle — after modify but before accum — later
     than the persisted snapshot.  Restarting from the file and replaying
     from the top must still land exactly on the uninterrupted result. *)
  let truth = make_app () in
  run_app (Runtime.create ~fns:(app_fns truth)) truth 10;
  let original = make_app () in
  let session = Runtime.create ~fns:(app_fns original) in
  run_app ~request_at:4 session original 7;
  let path = Filename.temp_file "am_checkpoint" ".snap" in
  Runtime.save_to_file session ~path;
  (* One and a half more cycles, then the crash. *)
  Runtime.step session ~descr:modify_loop ~run:(fun () ->
      Array.iteri (fun i v -> original.u.(i) <- v +. 1.0) original.u);
  let recovered = make_app () in
  Array.fill recovered.u 0 8 nan;
  Array.fill recovered.acc 0 8 nan;
  let r = Runtime.recover_from_file ~path ~fns:(app_fns recovered) in
  run_app r recovered 10;
  Sys.remove path;
  Alcotest.(check bool) "replayed u matches truth" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.u recovered.u);
  Alcotest.(check bool) "replayed acc matches truth" true
    (Am_util.Fa.approx_equal ~tol:0.0 truth.acc recovered.acc)

(* ---- Bounded-DPOR exploration of crash/restart schedules ------------------ *)

(* The crash fires when a rank's deliver-step clock reaches the spec'd
   count, so reordering deliveries moves the crash point — every
   interleaving within the bound is a different mid-run crash, and each
   must recover through the checkpoint to the fault-free bits.  All
   channels are coupled through the shared clocks and injector stream,
   hence [Schedcheck.conflict_all]. *)
let test_dpor_crash_restart_exhausted () =
  let spec =
    match Fault.spec_of_string "seed=31337,crash=1@80" with
    | Ok s -> s
    | Error m -> Alcotest.failf "bad spec: %s" m
  in
  let proxy = Sched_util.clover_proxy in
  let prog () =
    match Sched_util.run_schedule proxy ~n_ranks:2 ~spec ~recover:true with
    | Ok solution -> solution
    | Error f -> failwith (Finding.to_string f)
  in
  let reference = Sched_util.clean proxy ~n_ranks:2 in
  let solution, r =
    Sched_util.assert_uniform ~bound:1 ~max_executions:600
      ~dependent:Schedcheck.conflict_all
      ~equal:(fun a b -> Fa.approx_equal ~tol:0.0 a b)
      ~what:"cloverleaf(2) crash/restart" prog
  in
  if not (Fa.approx_equal ~tol:0.0 reference solution) then
    Alcotest.failf
      "recovered run is not bitwise equal to fault-free (%g)"
      (Fa.rel_discrepancy reference solution);
  if Sched_util.am_sched = None && r.Schedcheck.rp_executions <= 1 then
    Alcotest.fail "crash scenario offered no delivery decisions to explore"

(* ---- facade misuse ------------------------------------------------------ *)

(* Before [enable_checkpointing] there is no session: requesting or saving a
   checkpoint on any facade raises [Invalid_argument] naming the facade and
   the call, never a silent no-op. *)
let test_facade_misuse () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "am_misuse.snap" in
  let expect facade call f =
    let what = facade ^ "." ^ call in
    match f () with
    | () -> Alcotest.failf "%s before enable_checkpointing did not raise" what
    | exception Invalid_argument msg ->
      if not (Str_contains.contains msg what) then
        Alcotest.failf "%s raised %S, which does not name the call" what msg
  in
  let facade name ~request ~save =
    expect name "request_checkpoint" request;
    expect name "checkpoint_to_file" (fun () -> save ~path)
  in
  let op2 = Am_op2.Op2.create () in
  facade "Op2"
    ~request:(fun () -> Am_op2.Op2.request_checkpoint op2)
    ~save:(Am_op2.Op2.checkpoint_to_file op2);
  let ops1 = Am_ops.Ops1.create () in
  facade "Ops1"
    ~request:(fun () -> Am_ops.Ops1.request_checkpoint ops1)
    ~save:(Am_ops.Ops1.checkpoint_to_file ops1);
  let ops = Am_ops.Ops.create () in
  facade "Ops"
    ~request:(fun () -> Am_ops.Ops.request_checkpoint ops)
    ~save:(Am_ops.Ops.checkpoint_to_file ops);
  let ops3 = Am_ops.Ops3.create () in
  facade "Ops3"
    ~request:(fun () -> Am_ops.Ops3.request_checkpoint ops3)
    ~save:(Am_ops.Ops3.checkpoint_to_file ops3);
  Alcotest.(check bool) "no snapshot file written" false (Sys.file_exists path)

let () =
  Alcotest.run "checkpoint"
    [
      ( "planner",
        [
          Alcotest.test_case "fig8 units" `Quick test_fig8_units;
          Alcotest.test_case "fig8 decisions at adt_calc" `Quick
            test_fig8_decisions_at_adt_calc;
          Alcotest.test_case "fig8 globals" `Quick test_fig8_globals;
          Alcotest.test_case "period detection" `Quick test_period_detection;
          Alcotest.test_case "speculative trigger" `Quick
            test_speculative_waits_for_cheap_point;
          Alcotest.test_case "best trigger" `Quick test_best_trigger;
          Alcotest.test_case "render" `Quick test_render_figure;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "checkpoint + recovery" `Quick
            test_runtime_checkpoint_and_recovery;
          Alcotest.test_case "bounded saves" `Quick test_runtime_saves_less_than_everything;
          Alcotest.test_case "immediate without period" `Quick
            test_runtime_immediate_without_period;
          Alcotest.test_case "file persistence" `Quick test_file_persistence;
          Alcotest.test_case "file garbage rejected" `Quick
            test_file_persistence_rejects_garbage;
        ] );
      ( "damage",
        [
          Alcotest.test_case "truncated snapshot rejected" `Quick
            test_truncated_snapshot_rejected;
          Alcotest.test_case "bit flip caught by checksum" `Quick
            test_bitflip_snapshot_rejected;
          Alcotest.test_case "restore-then-replay after mid-period crash" `Quick
            test_restore_then_replay_after_midperiod_crash;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "crash/restart schedules exhausted" `Quick
            test_dpor_crash_restart_exhausted;
        ] );
      ( "facades",
        [
          Alcotest.test_case "checkpoint calls before enable raise" `Quick
            test_facade_misuse;
        ] );
    ]
