(* Self time of traced spans.

   Spans on the caller's lanes (the benchmark on lane 0, simulated ranks on
   their own lanes, all run by the calling domain one after another) form
   one timeline; a span's parent is the innermost span whose interval
   contains it.  Self time is a span's duration minus the time its direct
   children cover.  Pool worker lanes run concurrently with the caller and
   are left out of the nesting. *)

module Tracer = Am_obs.Tracer

type node = { ev : Tracer.event; mutable child_us : float }

let stop (e : Tracer.event) = e.ev_ts +. e.ev_dur

(* [(event, self_us)] for every span on the caller's lanes. *)
let self_times events =
  let spans =
    List.filter
      (fun (e : Tracer.event) ->
        (not e.ev_instant) && e.ev_lane < Am_taskpool.Pool.worker_lane_base)
      events
  in
  let spans =
    List.stable_sort
      (fun (a : Tracer.event) (b : Tracer.event) ->
        match compare a.ev_ts b.ev_ts with 0 -> compare b.ev_dur a.ev_dur | c -> c)
      spans
  in
  let stack = ref [] and out = ref [] in
  List.iter
    (fun (e : Tracer.event) ->
      let rec unwind = function
        | top :: rest when stop top.ev <= e.ev_ts || stop e > stop top.ev +. 1e-3 -> unwind rest
        | s -> s
      in
      stack := unwind !stack;
      (match !stack with top :: _ -> top.child_us <- top.child_us +. e.ev_dur | [] -> ());
      let n = { ev = e; child_us = 0.0 } in
      stack := n :: !stack;
      out := n :: !out)
    spans;
  List.rev_map (fun n -> (n.ev, Float.max 0.0 (n.ev.ev_dur -. n.child_us))) !out

(* Layer of a span: benchmark spans by name (set-up by phase), library
   spans by category. *)
let layer (e : Tracer.event) =
  match String.split_on_char '.' e.ev_name with
  | "bench" :: "setup" :: phase :: _ -> "bench.setup." ^ phase
  | "bench" :: a :: _ -> "bench." ^ a
  | _ -> "lib." ^ Tracer.category_to_string e.ev_cat

let by_layer selfs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e, s) ->
      let k = layer e in
      let total, self = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (total +. e.Tracer.ev_dur, self +. s))
    selfs;
  List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
