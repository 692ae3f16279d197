(* The dimension-generic core of the OPS facades.

   [Ops], [Ops1] and [Ops3] are typed shims over this module: they convert
   their ranges, stencils, index callbacks and mirror options to the
   three-axis forms of [Types] and call in here.  Everything an OPS context
   does lives here once — validation, backend dispatch, the distributed
   runtime, boundary mirrors and the checkpoint snapshot accessors — and
   every loop runs inside [Am_front.Front], the loop front end shared with
   OP2 (trace, profile, fault injector, footprints, checkpoint session).

   As with OP2, the backend is a property of the context: sequential,
   shared-memory (the outermost axis across the domain pool), the tiled GPU
   simulator, the sanitizer, or the Cartesian distributed runtime entered
   with [partition]. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Front = Am_front.Front
module Probe = Am_core.Probe
open Types

type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

(* Per-call-site loop handle: caches the compiled argument tables (data
   arrays and stencil offsets, see [Exec]) so repeated invocations skip
   argument compilation, and the kernel footprint while those tables stay
   fresh.  Freshness is a handful of pointer compares per call; a changed
   dataset array, stencil or access recompiles. *)
type handle = { mutable h_exec : Exec.t option; h_foot : Front.slot }

let make_handle () = { h_exec = None; h_foot = Front.slot () }

type ctx = {
  ndim : int;
  env : env;
  mutable backend : backend;
  mutable dist : Dist.t option;
  front : Front.t;
}

(* "Ops", "Ops1" or "Ops3", for error messages. *)
let facade ctx = ctx.front.Front.facade

let create ~ndim ?(backend = Seq) () =
  {
    ndim;
    env = make_env ();
    backend;
    dist = None;
    front = Front.create ~facade:(String.capitalize_ascii (facade_name ndim));
  }

(* ---- Kernel footprint inference ----------------------------------------- *)

(* Observed Chebyshev read extent per argument, computed against the real
   stencil offsets (which [Descr] does not keep): the widest offset whose
   point was observed read on some probe, for [Dataflow]'s report-only
   Redundant-exchange warnings.  [-1] marks "no information" — not a
   stencil read, or a footprint the report must not act on. *)
let observed_exts args (fp : Probe.t) =
  let usable = Probe.clean fp in
  Array.of_list
    (List.mapi
       (fun i arg ->
         match arg with
         | Arg_dat { dat; stencil; access; _ }
           when usable && Access.reads access && i < Array.length fp.Probe.fp_args ->
           let pr = Probe.points_read fp.Probe.fp_args.(i) ~dim:dat.dim in
           let ext = ref 0 in
           Array.iteri
             (fun p off ->
               if p < Array.length pr && pr.(p) then
                 ext := max !ext (stencil_extent [| off |]))
             stencil;
           !ext
         | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> -1)
       args)

(* The concrete stencil offsets and strides, which [Descr] abstracts to a
   point count and radius: part of the cache key because [observed_exts]
   indexes masks by offset position — same-shaped descriptors with
   different offset sets must probe separately. *)
let stencil_salt args =
  String.concat ";"
    (List.map
       (function
         | Arg_dat { stencil; stride; _ } ->
           String.concat ""
             (Array.to_list
                (Array.map
                   (fun (dx, dy, dz) -> Printf.sprintf "(%d,%d,%d)" dx dy dz)
                   stencil))
           ^
           if is_unit_stride stride then ""
           else
             Printf.sprintf "~%d/%d,%d/%d,%d/%d" stride.xn stride.xd stride.yn stride.yd
               stride.zn stride.zd
         | Arg_gbl _ -> "g"
         | Arg_idx _ -> "i")
       args)

(* Which argument positions are iteration-index buffers, so the probe
   feeds them grid-like coordinates (the descriptor flattens [Arg_idx]
   into a Read global the probe could not otherwise distinguish). *)
let idx_flags args =
  Array.of_list
    (List.map (function Arg_idx _ -> true | Arg_dat _ | Arg_gbl _ -> false) args)

let set_infer ctx = Front.set_infer ctx.front
let infer_enabled ctx = Front.infer_enabled ctx.front
let footprints ctx = Front.footprints ctx.front

(* ---- Backend and compiled-argument cache -------------------------------- *)

(* The handle's executor, while it still matches the live arguments. *)
let live_exec handle args =
  match handle with
  | Some { h_exec = Some c; _ } when Exec.compiled_matches c args -> Some c
  | Some _ | None -> None

(* Compile for a handle that missed: the new tables start a new footprint. *)
let recompile handle args =
  Am_obs.Counters.incr Am_obs.Obs.exec_misses;
  let c =
    Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan "compile" (fun () -> Exec.compile args)
  in
  handle.h_exec <- Some c;
  handle.h_foot.foot <- None;
  c

let set_backend ctx backend =
  (match (backend, ctx.dist) with
  | (Shared _ | Cuda_sim _ | Check), Some _ ->
    invalid_arg
      (facade ctx ^ ".set_backend: context is partitioned; ranks execute sequentially")
  | (Seq | Shared _ | Cuda_sim _ | Check), _ -> ());
  ctx.backend <- backend

let backend ctx = ctx.backend
let profile ctx = ctx.front.Front.profile
let trace ctx = ctx.front.Front.trace

(* ---- Declarations and arguments ----------------------------------------- *)

let decl_block ctx ~name = Types.decl_block ctx.env ~name ~ndim:ctx.ndim
let decl_dat ctx = Types.decl_dat ctx.env
let blocks ctx = Types.blocks ctx.env
let dats ctx = Types.dats ctx.env

(* Access-mode legality fails here, at construction, with the dataset name
   in hand (the loop-time [validate_args] re-checks as a backstop). *)
let arg_dat ?(ctor = "arg_dat") ?(stride = unit_stride) dat stencil access =
  if not (Access.valid_on_dat access) then
    invalid_arg
      (Printf.sprintf
         "%s.%s: access %s is not valid on dataset %s (datasets accept \
          Read/Write/Inc/Rw; Min/Max are global reductions — use arg_gbl)"
         (String.capitalize_ascii (facade_name dat.dat_block.ndim))
         ctor (Access.to_string access) dat.dat_name);
  Arg_dat { dat; stencil; access; stride }

(* Grid-transfer arguments for multigrid: [arg_dat_restrict] reads a finer
   dataset from a coarse-grid loop (accessed point = factor * iteration
   point + offset); [arg_dat_prolong] reads a coarser dataset from a
   fine-grid loop (point / factor + offset), on the block's used axes.
   Read-only. *)
let grid_transfer ~ctor ~fine dat stencil ~factor access =
  let f a = if a < dat.dat_block.ndim then factor else 1 in
  let n a = if fine then f a else 1 and d a = if fine then 1 else f a in
  arg_dat ~ctor dat stencil access
    ~stride:{ xn = n 0; xd = d 0; yn = n 1; yd = d 1; zn = n 2; zd = d 2 }

let arg_dat_restrict = grid_transfer ~ctor:"arg_dat_restrict" ~fine:true
let arg_dat_prolong = grid_transfer ~ctor:"arg_dat_prolong" ~fine:false

let arg_gbl ~ndim ~name buf access =
  if not (Access.valid_on_gbl access) then
    invalid_arg
      (Printf.sprintf
         "%s.arg_gbl: access %s is not valid on global %s (globals accept \
          Read/Inc/Min/Max)"
         (String.capitalize_ascii (facade_name ndim))
         (Access.to_string access) name);
  Arg_gbl { name; buf; access }

(* ---- Data access -------------------------------------------------------- *)

let fetch_interior ctx dat =
  match ctx.dist with
  | Some d -> Dist.fetch_interior d dat
  | None -> Types.fetch_interior dat

(* Direct initialisation of every addressable point (ghosts included): the
   function receives logical (x, y, z) and the component index. Pushes to
   the distributed windows when partitioned. *)
let init ctx dat f =
  let v = dat_view dat and r = addressable dat in
  for z = r.zlo to r.zhi - 1 do
    for y = r.ylo to r.yhi - 1 do
      for x = r.xlo to r.xhi - 1 do
        for c = 0 to dat.dim - 1 do
          vset v ~x ~y ~z ~c (f x y z c)
        done
      done
    done
  done;
  Option.iter (fun d -> Dist.push d dat) ctx.dist

(* ---- Partitioning -------------------------------------------------------- *)

let set_fault_injector ctx =
  Front.set_fault_injector ctx.front ?comm:(Option.map (fun d -> d.Dist.comm) ctx.dist)
let fault_injector ctx = Front.fault_injector ctx.front

(* Cartesian decomposition over [procs.(a)] ranks per axis of the
   reference space [refs]; staggered datasets give their extra cells to
   the last rank of each axis. *)
let partition ctx ~procs ~refs =
  if ctx.dist <> None then
    invalid_arg (facade ctx ^ ".partition: context already partitioned");
  (match ctx.backend with
  | Seq -> ()
  | Shared _ | Cuda_sim _ | Check ->
    invalid_arg (facade ctx ^ ".partition: switch the backend to Seq before partitioning"));
  let d = Dist.build ctx.env ~ndim:ctx.ndim ~procs ~refs in
  Front.attach_fault ctx.front d.Dist.comm;
  ctx.dist <- Some d

let partitioned ctx what =
  match ctx.dist with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "%s.%s: partition first" (facade ctx) what)

(* Hybrid MPI+OpenMP: run each rank's box on a shared pool. *)
let set_rank_execution ctx exec =
  (partitioned ctx "set_rank_execution").Dist.rank_exec <- exec

(* Halo-exchange policy, as for OP2: [On_demand] skips exchanges whose
   ghost layers are still fresh; [Eager] exchanges before every stencil
   read. *)
type halo_policy = On_demand | Eager

let set_halo_policy ctx policy =
  (partitioned ctx "set_halo_policy").Dist.eager_halo <- policy = Eager

(* Communication mode, as for OP2: [Blocking] completes ghost exchanges
   before the loop body; [Overlap] posts them, runs the interior sub-box
   (points whose stencils stay inside the owned region) while the messages
   are in flight, waits, then runs the boundary frame. *)
type comm_mode = Blocking | Overlap

let set_comm_mode ctx mode =
  (partitioned ctx "set_comm_mode").Dist.overlap <- mode = Overlap

let comm_mode ctx =
  match ctx.dist with Some d when d.Dist.overlap -> Overlap | Some _ | None -> Blocking

let comm_stats ctx = Option.map (fun d -> Am_simmpi.Comm.stats d.Dist.comm) ctx.dist

(* ---- Multi-block halos ---------------------------------------------------- *)

let decl_halo ctx ~name ~src ~dst ~src_range ~dst_range ?orientation () =
  if ctx.dist <> None then
    invalid_arg (facade ctx ^ ".decl_halo: declare halos before partitioning");
  Multiblock.decl_halo ~name ~src ~dst ~src_range ~dst_range ?orientation ()

let halo_transfer ctx halos =
  if ctx.dist <> None then
    invalid_arg
      (facade ctx
     ^ ".halo_transfer: inter-block halos unsupported on a partitioned context \
        (partition a single block instead)");
  Multiblock.transfer_all halos

(* ---- The parallel loop ----------------------------------------------------- *)

let par_loop ctx ~name ?(info = Descr.default_kernel_info) ?handle block range args
    kernel =
  validate_args ~block ~range args;
  let descr = describe ~name ~block ~range ~info args in
  let live = live_exec handle args in
  let slot =
    match (live, handle) with Some _, Some h -> Some h.h_foot | (None | Some _), _ -> None
  in
  let infer () =
    let fp = Probe.infer ~idx:(idx_flags args) ~loop:descr ~kernel () in
    { Probe.in_loop = descr; in_foot = fp; in_read_ext = observed_exts args fp }
  in
  let gbl_out () =
    List.filter_map
      (function
        | Arg_gbl { buf; access; _ } when access <> Access.Read -> Some buf
        | Arg_gbl _ | Arg_dat _ | Arg_idx _ -> None)
      args
  in
  Front.run ctx.front ?slot ~salt:(fun () -> stencil_salt args) ~infer ~gbl_out
    ~partitioned:(ctx.dist <> None) descr
    (fun foot ~halo_seconds ~overlap_seconds ->
      (* One resolution path: the handle's live tables, else a compile. *)
      let compiled () =
        match (live, handle) with
        | Some c, _ ->
          Am_obs.Counters.incr Am_obs.Obs.exec_hits;
          c
        | None, Some h -> recompile h args
        | None, None -> Exec.compile args
      in
      match ctx.dist with
      | Some d -> Dist.par_loop ~halo_seconds ~overlap_seconds d ~range ~args ~kernel
      | None -> (
        match ctx.backend with
        | Seq -> Exec.run_seq (compiled ()) ~range ~kernel
        | Shared { pool } ->
          Exec.run_shared (compiled ()) ~axis:(ctx.ndim - 1) pool ~range ~kernel
        | Cuda_sim config -> Exec.run_cuda (compiled ()) config ~range ~args ~kernel
        | Check ->
          Exec_check.run ~light:(Front.light foot) ~ndim:ctx.ndim ~name ~range ~args
            ~kernel ()))

(* ---- Physical boundary conditions (update_halo) --------------------------- *)

(* Reflective ghost-ring update with per-axis sign flips (velocity normal
   components) and centre-aware mirroring for staggered fields: the
   library-provided equivalent of CloverLeaf's update_halo. *)
let mirror_halo ctx ~depth ~signs ~centers dat =
  match ctx.dist with
  | Some d -> Dist.mirror d dat ~depth ~signs ~centers
  | None -> Boundary.mirror ~depth ~signs ~centers dat

(* ---- Automatic checkpointing (paper Section VI) -------------------------- *)

(* Snapshots capture the full padded array of a dataset (ghost ring
   included) so recovery restores boundary state exactly.  On a partitioned
   context the padded array is assembled from the rank windows' owned
   values before the copy ([pull]), and scattered back into every window
   (ghost copies included, which are then exactly the owners' values — what
   an exchange would deliver) after a restore ([push]); the snapshot is
   therefore decomposition-independent. *)
let checkpoint_fns ctx =
  let find name =
    match List.find_opt (fun d -> d.dat_name = name) (dats ctx) with
    | Some d -> d
    | None ->
      invalid_arg (Printf.sprintf "%s checkpoint: unknown dataset %s" (facade ctx) name)
  in
  {
    Am_checkpoint.Runtime.fetch =
      (fun name ->
        let d = find name in
        Option.iter (fun t -> Dist.pull t d) ctx.dist;
        Array.copy d.data);
    restore =
      (fun name data ->
        let d = find name in
        if Array.length data <> Array.length d.data then
          invalid_arg (facade ctx ^ " checkpoint: snapshot size mismatch");
        Array.blit data 0 d.data 0 (Array.length data);
        Option.iter (fun t -> Dist.push t d) ctx.dist);
  }

let enable_checkpointing ctx =
  Front.enable_checkpointing ctx.front ~fns:(checkpoint_fns ctx)

let request_checkpoint ctx = Front.request_checkpoint ctx.front
let checkpoint_session ctx = Front.checkpoint_session ctx.front
let checkpoint_to_file ctx = Front.checkpoint_to_file ctx.front

let recover_from_file ctx ~path =
  Front.recover_from_file ctx.front ~fns:(checkpoint_fns ctx) ~path
