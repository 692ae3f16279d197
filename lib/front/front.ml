(* The loop front end shared by the OP2 and OPS facades.

   Both libraries keep one [par_loop] contract: the facade validates and
   describes the loop, then hands its backend dispatch to [run], which
   wraps it the same way for unstructured and structured meshes — loop
   trace, the fault injector's loop count, the kernel footprint, timing,
   GC sampling, the loop span, the checkpoint session's step and the
   profile records.  The state that contract needs lives here once, in
   [t]; each facade context holds one. *)

module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Profile = Am_core.Profile
module Trace = Am_core.Trace
module Runtime = Am_checkpoint.Runtime

type t = {
  facade : string; (* "Op2", "Ops", "Ops1" or "Ops3", for error messages *)
  profile : Profile.t;
  trace : Trace.t;
  mutable fault : Am_simmpi.Fault.t option;
  mutable checkpoint : Runtime.session option;
  mutable infer : bool; (* kernel footprint inference, on by default *)
  foot_tbl : (string, Probe.info) Hashtbl.t; (* keyed by [Probe.signature] *)
}

let create ~facade =
  {
    facade;
    profile = Profile.create ();
    trace = Trace.create ();
    fault = None;
    checkpoint = None;
    infer = true;
    foot_tbl = Hashtbl.create 32;
  }

(* ---- Fault injection ----------------------------------------------------- *)

(* Route the partitioned runtime's messages ([comm], when the facade's
   context is partitioned) through the injector's reliable transport; a
   loop-counter crash trigger fires on any backend. *)
let set_fault_injector t ?comm f =
  t.fault <- Some f;
  Option.iter (fun comm -> Am_simmpi.Comm.attach_fault comm f) comm

let fault_injector t = t.fault

(* The facade partitioned its context: an injector set earlier now covers
   the new communicator too. *)
let attach_fault t comm = Option.iter (Am_simmpi.Comm.attach_fault comm) t.fault

(* ---- Kernel footprint inference ----------------------------------------- *)

(* A loop handle's footprint.  The facade hands the slot to [run] only while
   the handle still describes the live arguments, and empties it when the
   handle re-resolves. *)
type slot = { mutable foot : Probe.info option }

let slot () = { foot = None }
let set_infer t enabled = t.infer <- enabled
let infer_enabled t = t.infer

(* Every footprint this context has inferred, for the analysis layer
   ([Verify.check], [Dataflow.halo_schedule]). *)
let footprints t =
  Hashtbl.fold (fun _ fi acc -> fi :: acc) t.foot_tbl []
  |> List.sort (fun a b ->
         compare a.Probe.in_loop.Descr.loop_name b.Probe.in_loop.Descr.loop_name)

(* The handle's footprint when there is one, else the table's, probing the
   kernel ([infer]) on first sight of the signature: a kernel is a pure
   function of its staging buffers, so one inference per signature covers
   every later call.  [salt] separates descriptors [Descr] renders alike. *)
let footprint t ?slot ?(salt = fun () -> "") ~infer descr =
  match slot with
  | Some { foot = Some fi } ->
    Am_obs.Counters.incr Am_obs.Obs.infer_hits;
    Some fi
  | Some { foot = None } | None ->
    let key = Probe.signature ~salt:(salt ()) descr in
    let fi =
      match Hashtbl.find_opt t.foot_tbl key with
      | Some fi ->
        Am_obs.Counters.incr Am_obs.Obs.infer_hits;
        fi
      | None ->
        Am_obs.Counters.incr Am_obs.Obs.infer_misses;
        let fi = infer () in
        Hashtbl.add t.foot_tbl key fi;
        fi
    in
    Option.iter (fun s -> s.foot <- Some fi) slot;
    Some fi

(* The sanitizer drops to light mode (NaN checks only) exactly when the
   probes proved the declaration: a loop whose footprint was caught
   violating keeps the full per-element guards. *)
let light = function Some fi -> Probe.clean fi.Probe.in_foot | None -> false

(* ---- Automatic checkpointing (paper Section VI) -------------------------- *)

(* [fns] are the facade's snapshot accessors over its own dataset registry:
   the "all data is handed to the library" property is what makes
   checkpointing fully automatic. *)
let enable_checkpointing t ~fns =
  if t.checkpoint = None then t.checkpoint <- Some (Runtime.create ~fns)

let live_session t what =
  match t.checkpoint with
  | Some session -> session
  | None ->
    invalid_arg
      (Printf.sprintf "%s.%s: checkpointing not enabled (call enable_checkpointing first)"
         t.facade what)

(* Ask for a checkpoint at the next opportunity; with periodicity evidence
   the session defers within one loop period to the cheapest trigger. *)
let request_checkpoint t =
  Runtime.request_checkpoint (live_session t "request_checkpoint")

let checkpoint_session t = t.checkpoint

let checkpoint_to_file t ~path =
  Runtime.save_to_file (live_session t "checkpoint_to_file") ~path

(* Restart: subsequent loops run through a fast-forwarding session that
   skips every body until the checkpoint position, restores the saved
   datasets there, and resumes normal execution. *)
let recover_from_file t ~fns ~path =
  t.checkpoint <- Some (Runtime.recover_from_file ~path ~fns)

(* ---- The loop wrapper ----------------------------------------------------- *)

(* Run one described loop.  [execute foot ~halo_seconds ~overlap_seconds] is
   the facade's backend dispatch; the distributed runtimes add their exposed
   and hidden exchange time to the two accumulators, which are recorded
   when the context is [partitioned].  [gbl_out] lists the
   loop's non-Read global buffers, which a checkpointing session logs and
   replays. *)
let run t ?slot ?salt ~infer ~gbl_out ~partitioned (descr : Descr.loop) execute =
  let name = descr.Descr.loop_name in
  Trace.record t.trace descr;
  (* The injected rank crash counts parallel loops on the injector itself,
     so the trigger position survives a recovery restart's fresh context. *)
  Option.iter Am_simmpi.Fault.note_loop t.fault;
  let foot = if t.infer then footprint t ?slot ?salt ~infer descr else None in
  let halo_seconds = ref 0.0 and overlap_seconds = ref 0.0 in
  let body () = execute foot ~halo_seconds ~overlap_seconds in
  let t0 = Unix.gettimeofday () in
  let traced = Am_obs.Obs.tracing () in
  let gc0 = Profile.gc_sample () in
  if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop name;
  (match t.checkpoint with
  | None -> body ()
  | Some session ->
    (* The session decides whether to run the body (skipped while
       fast-forwarding, with logged global outputs replayed), snapshot
       datasets before it, or defer. *)
    Runtime.step ~gbl_out:(gbl_out ()) session ~descr ~run:body);
  if traced then Am_obs.Obs.end_span ();
  let seconds = Unix.gettimeofday () -. t0 in
  Profile.record_gc t.profile ~name gc0;
  Profile.record t.profile ~name ~seconds ~bytes:(Descr.total_bytes descr)
    ~elements:descr.Descr.set_size;
  if partitioned then
    Profile.record_halo t.profile ~name ~overlapped:!overlap_seconds
      ~seconds:!halo_seconds ()
