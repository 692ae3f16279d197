(* The dimension-generic core of the OPS facades.

   [Ops], [Ops1] and [Ops3] are typed shims over this module: they convert
   their ranges, stencils, index callbacks and mirror options to the
   three-axis forms of [Types] and call in here.  Everything a context does
   lives here once — backend dispatch, the distributed runtime, lazy loop
   chains with their tiled segment runners, kernel footprint inference,
   GC sampling, boundary mirrors and automatic checkpointing.

   As with OP2, the backend is a property of the context: sequential,
   shared-memory (the outermost axis across the domain pool), the tiled GPU
   simulator, the sanitizer, or the Cartesian distributed runtime entered
   with [partition]. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Probe = Am_core.Probe
module Profile = Am_core.Profile
module Trace = Am_core.Trace
open Types

type backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check (* sanitizer: seq semantics + access-descriptor guards *)

(* Per-call-site loop handle: caches the compiled argument tables (data
   arrays and stencil offsets, see [Exec]) so repeated invocations skip
   argument compilation.  Freshness is a handful of pointer compares per
   call; a changed dataset array, stencil or access recompiles. *)
type handle = { mutable h_exec : Exec.t option }

let make_handle () = { h_exec = None }

(* One recorded [par_loop] invocation: everything needed to run it later.
   Read-global buffers are snapshotted at record time ([q_snapshots]) —
   applications refill scratch constant arrays in place between loops, so
   the values the loop saw when it was recorded must be restored (into the
   same array, preserving the handle cache's pointer identity) before the
   deferred execution reads them. *)
type queued_loop = {
  q_name : string;
  q_descr : Descr.loop;
  q_range : range;
  q_args : arg list;
  q_kernel : float array array -> unit;
  q_handle : handle option;
  q_snapshots : (float array * float array) list; (* user buffer, copy *)
  q_foot : Probe.info option; (* observed footprint, if inference is on *)
}

(* A chain entry: a recorded loop, or an order-preserving deferred data
   operation (ghost-ring mirrors) that splits tileable segments. *)
type chain_item = Q_loop of queued_loop | Q_op of (unit -> unit) * string

type ctx = {
  ndim : int;
  env : env;
  mutable backend : backend;
  profile : Profile.t;
  trace : Trace.t;
  mutable dist : Dist.t option;
  mutable checkpoint : Am_checkpoint.Runtime.session option;
  mutable fault : Am_simmpi.Fault.t option;
  (* Lazy loop chains (cross-loop cache tiling).  [tile_pool] switches the
     tiled flush from the sequential slab walk to the wavefront executor. *)
  mutable lazy_mode : bool;
  mutable tile_size : int;
  mutable tile_pool : Am_taskpool.Pool.t option;
  mutable chain_rev : chain_item list;
  mutable chain_len : int;
  mutable obs_hooked : bool;
  (* Kernel footprint inference (once per loop signature). *)
  mutable infer : bool;
  (* Spend sampled never-observed-read facts on runtime tightening (halo
     depth / exchange drops / tile skew).  Off by default: absence under
     sampling is evidence, not proof, so acting on it is an explicit
     opt-in (see DESIGN.md 5j). *)
  mutable tighten : bool;
  foot_tbl : (string, Probe.info) Hashtbl.t;
}

(* "Ops", "Ops1" or "Ops3", for error messages. *)
let facade ctx = String.capitalize_ascii (facade_name ctx.ndim)

(* Slab height of the skewed tiles along the outermost axis: a tile is a
   run of cells in 1D, of rows in 2D and of planes in 3D. *)
let default_tile ndim = match ndim with 1 -> 256 | 2 -> 16 | _ -> 4

(* Longest chain recorded before a forced flush: bounds the closures (and
   global snapshots) held alive, and keeps a runaway chain's tile schedule
   from degenerating into one giant skewed wavefront. *)
let max_chain = 64

let create ~ndim ?(backend = Seq) () =
  {
    ndim;
    env = make_env ();
    backend;
    profile = Profile.create ();
    trace = Trace.create ();
    dist = None;
    checkpoint = None;
    fault = None;
    lazy_mode = false;
    tile_size = default_tile ndim;
    tile_pool = None;
    chain_rev = [];
    chain_len = 0;
    obs_hooked = false;
    infer = true;
    tighten = false;
    foot_tbl = Hashtbl.create 32;
  }

(* ---- Kernel footprint inference ----------------------------------------- *)

(* Observed Chebyshev read extent per argument, computed against the real
   stencil offsets (which [Descr] does not keep): the widest offset whose
   point was observed read on some probe.  [-1] marks "no tightening" —
   not a stencil read, or a footprint the consumers must not act on. *)
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
   and the tiling projection index masks by offset position — same-shaped
   descriptors with different offset sets must probe separately. *)
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

(* Probe on first sight of a loop signature, then serve the cached
   observation: the kernel is a pure function of its staging buffers, so
   one inference per (name, argument structure) covers every later call. *)
let footprint ctx (descr : Descr.loop) args kernel =
  if not ctx.infer then None
  else begin
    let key = Probe.signature ~salt:(stencil_salt args) descr in
    match Hashtbl.find_opt ctx.foot_tbl key with
    | Some fi ->
      Am_obs.Counters.incr Am_obs.Obs.infer_hits;
      Some fi
    | None ->
      Am_obs.Counters.incr Am_obs.Obs.infer_misses;
      let fp = Probe.infer ~idx:(idx_flags args) ~loop:descr ~kernel () in
      let fi =
        { Probe.in_loop = descr; in_foot = fp; in_read_ext = observed_exts args fp }
      in
      Hashtbl.add ctx.foot_tbl key fi;
      Some fi
  end

(* The sanitizer drops to light mode (NaN checks only) exactly when the
   static pass proved the declaration: a loop whose footprint was caught
   violating keeps the full per-element guards, so the pinned dynamic
   violation is still raised. *)
let light_of = function
  | Some fi -> Probe.clean fi.Probe.in_foot
  | None -> false

let set_infer ctx enabled = ctx.infer <- enabled
let infer_enabled ctx = ctx.infer
let set_tighten ctx enabled = ctx.tighten <- enabled
let tighten_enabled ctx = ctx.tighten

(* Every footprint this context has inferred, for the analysis layer
   ([Verify.check], halo-schedule tightening). *)
let footprints ctx =
  Hashtbl.fold (fun _ fi acc -> fi :: acc) ctx.foot_tbl []
  |> List.sort (fun a b ->
         compare a.Probe.in_loop.Descr.loop_name b.Probe.in_loop.Descr.loop_name)

(* ---- Lazy loop chains (record / flush / tile) --------------------------- *)

let now () = Unix.gettimeofday ()

let resolve_compiled handle args =
  match handle.h_exec with
  | Some c when Exec.compiled_matches c args ->
    Am_obs.Counters.incr Am_obs.Obs.exec_hits;
    c
  | Some _ | None ->
    Am_obs.Counters.incr Am_obs.Obs.exec_misses;
    let c =
      Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan "compile" (fun () -> Exec.compile args)
    in
    handle.h_exec <- Some c;
    c

let compiled_of q =
  match q.q_handle with
  | Some h -> resolve_compiled h q.q_args
  | None -> Exec.compile q.q_args

(* Lazy recording applies on the backends whose execution we can replay
   slab-by-slab (Seq bitwise-exactly, Check semantically); a partitioned or
   checkpointing context needs every loop's side effects at its program
   point, so recording is bypassed rather than half-supported. *)
let lazy_active ctx =
  ctx.lazy_mode && ctx.dist = None && ctx.checkpoint = None
  && (match ctx.backend with Seq | Check -> true | Shared _ | Cuda_sim _ -> false)

let enqueue ctx item =
  ctx.chain_rev <- item :: ctx.chain_rev;
  ctx.chain_len <- ctx.chain_len + 1

(* Restore the record-time values of a loop's Read globals (in place: the
   arrays' identities are what the compiled-executor cache keys on). *)
let blit_snapshots q =
  List.iter
    (fun (buf, snap) -> Array.blit snap 0 buf 0 (Array.length snap))
    q.q_snapshots

(* A flush rewinds Read-global buffers entry by entry, so the caller-visible
   (live) values are saved first and restored when the flush completes. *)
let save_gbl_live items =
  let saved = ref [] in
  List.iter
    (function
      | Q_loop q ->
        List.iter
          (fun (buf, _) ->
            if not (List.exists (fun (b, _) -> b == buf) !saved) then
              saved := (buf, Array.copy buf) :: !saved)
          q.q_snapshots
      | Q_op _ -> ())
    items;
  !saved

let restore_gbl_live saved =
  List.iter (fun (buf, live) -> Array.blit live 0 buf 0 (Array.length live)) saved

(* Only unit-stride loops tile: a multigrid transfer argument couples each
   iteration row to factor-scaled rows of the other grid, which the
   outer-axis skew model does not describe.  Such loops run as segment
   boundaries at their recorded program point. *)
let loop_tileable q =
  List.for_all
    (function
      | Arg_dat { stride; _ } -> is_unit_stride stride
      | Arg_gbl _ | Arg_idx _ -> true)
    q.q_args

(* The tiled axes: slabs are cut along the outermost used axis, and the
   wavefront executor also skews the next one (x stays untiled in 3D — it
   is the contiguous axis).  A 1D chain projects its second axis onto the
   unused y, whose single column [0, 1) carries no dependence, so the
   wavefront index collapses: a chain with real dependences runs its
   (inherently pipelined) tiles one wave each, and a dependence-free chain
   fans every tile into one wave. *)
let outer_axis ctx = ctx.ndim - 1
let inner_axis ctx = if ctx.ndim >= 2 then ctx.ndim - 2 else 1

(* Project a recorded loop onto one tiled [axis].  Writes are centre-only
   (validated), so a writing access contributes its dataset to [li_writes]
   plus a centre touch in [li_reads]; reading accesses contribute their
   stencil's extents along the axis. *)
let entry_info ctx ~axis q =
  (* Under the [tighten] opt-in, when inference proved the declaration the
     skew distances come from the points observed read, not the declared
     stencil: an over-declared point costs tile skew for nothing.  The
     default keeps the declared distances — a data-dependent read the
     probes never triggered must not shrink a dependence and reorder the
     tiles. *)
  let foot =
    match q.q_foot with
    | Some fi when ctx.tighten && Probe.clean fi.Probe.in_foot -> Some fi.Probe.in_foot
    | Some _ | None -> None
  in
  let reads = ref [] and writes = ref [] in
  List.iteri
    (fun i arg ->
      match arg with
      | Arg_dat { dat; stencil; access; _ } ->
        if Access.writes access then writes := dat.dat_id :: !writes;
        let below = ref 0 and above = ref 0 in
        if Access.reads access then begin
          let keep =
            match foot with
            | Some fp when i < Array.length fp.Probe.fp_args ->
              let pr = Probe.points_read fp.Probe.fp_args.(i) ~dim:dat.dim in
              fun p -> p < Array.length pr && pr.(p)
            | Some _ | None -> fun _ -> true
          in
          Array.iteri
            (fun p off ->
              if keep p then begin
                let d = offset_axis off axis in
                if -d > !below then below := -d;
                if d > !above then above := d
              end)
            stencil
        end;
        reads := (dat.dat_id, !below, !above) :: !reads
      | Arg_gbl _ | Arg_idx _ -> ())
    q.q_args;
  {
    Tiling.li_lo = range_lo q.q_range axis;
    li_hi = range_hi q.q_range axis;
    li_reads = List.rev !reads;
    li_writes = List.rev !writes;
  }

let record_entry_profile ctx q ~seconds =
  Profile.record ctx.profile ~name:q.q_name ~seconds
    ~bytes:(Descr.total_bytes q.q_descr) ~elements:(range_size q.q_range)

let run_check ctx q range =
  Exec_check.run ~light:(light_of q.q_foot) ~ndim:ctx.ndim ~name:q.q_name ~range
    ~args:q.q_args ~kernel:q.q_kernel ()

(* Run one recorded item eagerly at its program point (single-loop
   segments, non-tileable loops, deferred data operations). *)
let run_queued_eager ctx q =
  blit_snapshots q;
  let traced = Am_obs.Obs.tracing () in
  if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop q.q_name;
  let t0 = now () in
  (match ctx.backend with
  | Seq ->
    let compiled = Option.map (fun h -> resolve_compiled h q.q_args) q.q_handle in
    Exec.run_seq ?compiled ~range:q.q_range ~args:q.q_args ~kernel:q.q_kernel ()
  | Check -> run_check ctx q q.q_range
  | Shared _ | Cuda_sim _ -> assert false (* lazy_active excludes these *));
  if traced then Am_obs.Obs.end_span ();
  record_entry_profile ctx q ~seconds:(now () -. t0)

(* Tiled execution of a maximal run of tileable loops on Seq.  Bitwise
   equality with the eager backend comes from three invariants: each
   entry's arguments are compiled and its staging buffers made ONCE before
   any slab runs (global accumulators persist across slabs); a loop's slabs
   execute in ascending order along the outer axis, so their concatenation
   is exactly the eager traversal; and globals merge once per entry after
   the last slab, in chain order.  On Check, the same slab schedule runs
   through the guarded engine, so descriptor violations are caught under
   the tiled traversal too: each slab is a fresh guarded run (record-time
   globals re-blitted first) and global reductions merge per slab, which
   is associative for Inc/Min/Max — Check promises seq semantics, not
   bitwise identity. *)
let run_segment ctx entries =
  let axis = outer_axis ctx in
  let infos = Array.map (entry_info ctx ~axis) entries in
  let sched = Tiling.find ~tile_size:ctx.tile_size infos in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles (Array.length sched.Tiling.sched_tiles);
  let prepped =
    Array.map
      (fun q ->
        match ctx.backend with
        | Check -> None
        | Seq | Shared _ | Cuda_sim _ ->
          blit_snapshots q;
          let compiled = compiled_of q in
          Some (compiled, Exec.make_buffers compiled))
      entries
  in
  let secs = Array.make (Array.length entries) 0.0 in
  let traced = Am_obs.Obs.tracing () in
  Array.iteri
    (fun t slabs ->
      let tile_t0 = now () in
      if traced then
        Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop
          ~args:[ ("tile", float_of_int t) ]
          "tile";
      Array.iter
        (fun { Tiling.s_loop; s_lo; s_hi } ->
          let q = entries.(s_loop) in
          let range = with_axis q.q_range axis s_lo s_hi in
          let t0 = now () in
          (match prepped.(s_loop) with
          | Some (compiled, buffers) ->
            Exec.run_range compiled buffers ~range ~kernel:q.q_kernel
          | None ->
            blit_snapshots q;
            run_check ctx q range);
          secs.(s_loop) <- secs.(s_loop) +. (now () -. t0))
        slabs;
      if traced then Am_obs.Obs.end_span ();
      Am_obs.Counters.observe Am_obs.Obs.tile_seconds (now () -. tile_t0))
    sched.Tiling.sched_tiles;
  Array.iteri
    (fun k q ->
      (match prepped.(k) with
      | Some (compiled, buffers) when Exec.has_globals compiled ->
        Exec.merge_globals compiled buffers
      | Some _ | None -> ());
      record_entry_profile ctx q ~seconds:secs.(k))
    entries

(* Does a compiled loop carry a reducing (Inc/Min/Max) global?  Such
   entries need per-tile accumulator slots under the wavefront executor:
   worker-local partials would merge in a scheduling-dependent order. *)
let reduces_globals compiled =
  Array.exists
    (function
      | Exec.C_gbl { access = Access.Inc | Access.Min | Access.Max; _ } -> true
      | Exec.C_gbl _ | Exec.C_dat _ | Exec.C_idx _ -> false)
    compiled.Exec.args

(* The wavefront schedule of a segment: outer and inner projections. *)
let wave_schedule ctx entries =
  let outer = Array.map (entry_info ctx ~axis:(outer_axis ctx)) entries in
  let inner = Array.map (entry_info ctx ~axis:(inner_axis ctx)) entries in
  (outer, inner, Tiling_par.find ~tile_size:ctx.tile_size ~outer ~inner)

(* The box one wavefront slab covers: the recorded range with its outer
   and inner intervals replaced. *)
let slab_range ctx q { Tiling_par.ps_olo; ps_ohi; ps_ilo; ps_ihi; _ } =
  let outer = with_axis q.q_range (outer_axis ctx) ps_olo ps_ohi in
  with_axis outer (inner_axis ctx) ps_ilo ps_ihi

(* Wavefront-parallel execution of a tileable segment on Seq.  The
   contract is weaker than the sequential tiled walk's bitwise promise:
   dataset writes are still bitwise identical to eager execution (each
   cell is computed exactly once, from inputs the schedule proves
   complete), but Inc global reductions accumulate per tile and merge in
   ascending tile id — a fixed reassociation of the eager sum, identical
   across pool sizes and repeated runs, yet not bitwise the eager total.
   Min/Max globals stay exact (order-free).  Kernels run on pool domains,
   so per-entry compilation, Read-global snapshots and staging templates
   are captured sequentially up front; workers only deep-copy templates
   and write datasets in boxes the planner proved disjoint. *)
let run_segment_par ctx pool entries =
  let n = Array.length entries in
  let _, _, sched = wave_schedule ctx entries in
  let ntiles = Tiling_par.n_tiles sched in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles ntiles;
  let prepped =
    Array.map
      (fun q ->
        blit_snapshots q;
        let compiled = compiled_of q in
        (compiled, Exec.make_buffers compiled, reduces_globals compiled))
      entries
  in
  (* Per-tile accumulator slots for reducing entries, indexed by tile id:
     each slot is written by exactly one tile and read only after the
     pool joins. *)
  let acc =
    Array.map
      (fun (_, _, reduces) -> if reduces then Array.make ntiles None else [||])
      prepped
  in
  let copy_buffers template = Array.map Array.copy template in
  let local () = (Array.make n None, Array.make n 0.0) in
  let tile (wbufs, wsecs) (pt : Tiling_par.ptile) =
    Array.iter
      (fun (slab : Tiling_par.pslab) ->
        let k = slab.Tiling_par.ps_loop in
        let q = entries.(k) in
        let compiled, template, reduces = prepped.(k) in
        let buffers =
          if reduces then begin
            let b = copy_buffers template in
            acc.(k).(pt.Tiling_par.pt_id) <- Some b;
            b
          end
          else
            match wbufs.(k) with
            | Some b -> b
            | None ->
              let b = copy_buffers template in
              wbufs.(k) <- Some b;
              b
        in
        let t0 = now () in
        Exec.run_range compiled buffers ~range:(slab_range ctx q slab) ~kernel:q.q_kernel;
        wsecs.(k) <- wsecs.(k) +. (now () -. t0))
      pt.Tiling_par.pt_slabs
  in
  let states = Tiling_par.run pool sched ~local ~tile in
  let secs = Array.make n 0.0 in
  List.iter
    (fun (_, wsecs) -> Array.iteri (fun k s -> secs.(k) <- secs.(k) +. s) wsecs)
    states;
  Array.iteri
    (fun k q ->
      let compiled, _, reduces = prepped.(k) in
      if reduces then
        Array.iter
          (function
            | Some buffers -> Exec.merge_globals compiled buffers
            | None -> ())
          acc.(k);
      record_entry_profile ctx q ~seconds:secs.(k))
    entries

(* The sanitizer runs the same wavefront schedule sequentially (wave by
   wave, tiles in id order) through the guarded engine, adding a
   cross-tile claim tracker: within one wave, a box one tile writes must
   not intersect another tile's writes or stencil-extended reads.  The
   planner's [verify] already rejects such schedules; the tracker catches
   them again at execution time, so a bypassed or bogus plan surfaces as a
   sanitizer violation rather than a silent race. *)
let run_segment_check_wave ctx entries =
  let outer, inner, sched = wave_schedule ctx entries in
  Am_obs.Counters.add Am_obs.Obs.chain_tiles (Tiling_par.n_tiles sched);
  Am_obs.Counters.add Am_obs.Obs.tile_wavefronts (Tiling_par.n_waves sched);
  let secs = Array.make (Array.length entries) 0.0 in
  let overlap alo ahi blo bhi = min ahi bhi > max alo blo in
  let axis_name a = String.make 1 "xyz".[a] in
  Array.iteri
    (fun w wave ->
      (* dataset id -> (tile, olo, ohi, ilo, ihi, wrote) claims this wave *)
      let claims : (int, (int * int * int * int * int * bool) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let claim d tile (olo, ohi, ilo, ihi) ~writing =
        let prev = Option.value ~default:[] (Hashtbl.find_opt claims d) in
        List.iter
          (fun (tile', olo', ohi', ilo', ihi', wrote') ->
            if
              tile' <> tile && (writing || wrote') && overlap olo ohi olo' ohi'
              && overlap ilo ihi ilo' ihi'
            then begin
              Am_obs.Counters.incr Am_obs.Obs.check_violations;
              let o = axis_name (outer_axis ctx) and i = axis_name (inner_axis ctx) in
              Exec_check.violation
                "check: wave %d, dataset %d: tile %d %s %s [%d,%d) %s [%d,%d) while \
                 tile %d %s %s [%d,%d) %s [%d,%d) — cross-tile race inside one \
                 wavefront"
                w d tile
                (if writing then "writes" else "reads")
                o olo ohi i ilo ihi tile'
                (if wrote' then "writes" else "reads")
                o olo' ohi' i ilo' ihi'
            end)
          prev;
        Hashtbl.replace claims d ((tile, olo, ohi, ilo, ihi, writing) :: prev)
      in
      Array.iter
        (fun pt ->
          let tile = pt.Tiling_par.pt_id in
          Array.iter
            (fun (slab : Tiling_par.pslab) ->
              let { Tiling_par.ps_loop = k; ps_olo; ps_ohi; ps_ilo; ps_ihi } = slab in
              let q = entries.(k) in
              List.iter
                (fun d -> claim d tile (ps_olo, ps_ohi, ps_ilo, ps_ihi) ~writing:true)
                outer.(k).Tiling.li_writes;
              List.iter2
                (fun (d, ob, oa) (_, ib, ia) ->
                  claim d tile
                    (ps_olo - ob, ps_ohi + oa, ps_ilo - ib, ps_ihi + ia)
                    ~writing:false)
                outer.(k).Tiling.li_reads inner.(k).Tiling.li_reads;
              blit_snapshots q;
              let t0 = now () in
              run_check ctx q (slab_range ctx q slab);
              secs.(k) <- secs.(k) +. (now () -. t0))
            pt.Tiling_par.pt_slabs)
        wave)
    sched.Tiling_par.par_waves;
  Array.iteri (fun k q -> record_entry_profile ctx q ~seconds:secs.(k)) entries

(* Flush the recorded chain: split it at deferred data operations and
   non-tileable loops, run each maximal tileable segment slab-by-slab
   through the skewed schedule, and run everything else eagerly at its
   recorded position.  Loop order inside a tile is chain order, so the
   observable dataset state after a flush is identical to eager execution
   (bitwise on Seq). *)
let flush ctx =
  if ctx.chain_len > 0 then begin
    let items = List.rev ctx.chain_rev in
    ctx.chain_rev <- [];
    ctx.chain_len <- 0;
    Am_obs.Counters.incr Am_obs.Obs.chain_flushes;
    let flush_t0 = now () in
    Am_obs.Obs.span ~cat:Am_obs.Tracer.Loop "chain_flush" (fun () ->
        let saved = save_gbl_live items in
        let seg = ref [] in
        let run_pending () =
          match List.rev !seg with
          | [] -> ()
          | [ q ] ->
            seg := [];
            run_queued_eager ctx q
          | entries -> (
            seg := [];
            let entries = Array.of_list entries in
            match (ctx.backend, ctx.tile_pool) with
            | (Seq | Check), None -> run_segment ctx entries
            | Seq, Some pool -> run_segment_par ctx pool entries
            | Check, Some _ -> run_segment_check_wave ctx entries
            | (Shared _ | Cuda_sim _), _ -> assert false)
        in
        List.iter
          (function
            | Q_loop q when loop_tileable q -> seg := q :: !seg
            | Q_loop q ->
              run_pending ();
              run_queued_eager ctx q
            | Q_op (f, _name) ->
              run_pending ();
              f ())
          items;
        run_pending ();
        restore_gbl_live saved);
    Am_obs.Counters.observe Am_obs.Obs.chain_flush_seconds (now () -. flush_t0)
  end

let set_lazy ctx ?tile_size enabled =
  flush ctx;
  (match tile_size with
  | Some t when t > 0 -> ctx.tile_size <- t
  | Some _ | None -> ());
  ctx.lazy_mode <- enabled;
  (* [set_lazy] selects the sequential tiled walk; parallel tiling is an
     explicit opt-in through [set_tile_exec]. *)
  ctx.tile_pool <- None;
  if enabled && not ctx.obs_hooked then begin
    (* Trace/counter exports and Obs.report force a flush first, so queued
       loops are never dropped from (or double-counted in) an artifact. *)
    ctx.obs_hooked <- true;
    Am_obs.Obs.add_flush_hook (fun () -> flush ctx)
  end

type tile_exec =
  | Tiled of { tile : int }
  | Tiled_par of { pool : Am_taskpool.Pool.t; tile : int }

let set_tile_exec ctx mode =
  match mode with
  | Tiled { tile } -> set_lazy ctx ~tile_size:tile true
  | Tiled_par { pool; tile } ->
    set_lazy ctx ~tile_size:tile true;
    ctx.tile_pool <- Some pool

let tile_exec ctx =
  if not ctx.lazy_mode then None
  else
    match ctx.tile_pool with
    | Some pool -> Some (Tiled_par { pool; tile = ctx.tile_size })
    | None -> Some (Tiled { tile = ctx.tile_size })

let lazy_mode ctx = ctx.lazy_mode
let tile_size ctx = ctx.tile_size
let pending ctx = ctx.chain_len

let set_backend ctx backend =
  flush ctx;
  (match (backend, ctx.dist) with
  | (Shared _ | Cuda_sim _ | Check), Some _ ->
    invalid_arg
      (facade ctx ^ ".set_backend: context is partitioned; ranks execute sequentially")
  | (Seq | Shared _ | Cuda_sim _ | Check), _ -> ());
  ctx.backend <- backend

let backend ctx = ctx.backend

let profile ctx =
  flush ctx;
  ctx.profile

let trace ctx = ctx.trace

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
  flush ctx;
  match ctx.dist with
  | Some d -> Dist.fetch_interior d dat
  | None -> Types.fetch_interior dat

(* Direct initialisation of every addressable point (ghosts included): the
   function receives logical (x, y, z) and the component index. Pushes to
   the distributed windows when partitioned. *)
let init ctx dat f =
  flush ctx;
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

let dist_comm ctx = Option.map (fun d -> d.Dist.comm) ctx.dist

(* Route the distributed runtime's messages through the fault injector's
   reliable transport; a loop-counter crash trigger fires on any backend. *)
let set_fault_injector ctx f =
  ctx.fault <- Some f;
  Option.iter (fun comm -> Am_simmpi.Comm.attach_fault comm f) (dist_comm ctx)

let fault_injector ctx = ctx.fault

(* Cartesian decomposition over [procs.(a)] ranks per axis of the
   reference space [refs]; staggered datasets give their extra cells to
   the last rank of each axis. *)
let partition ctx ~procs ~refs =
  flush ctx;
  if ctx.dist <> None then
    invalid_arg (facade ctx ^ ".partition: context already partitioned");
  (match ctx.backend with
  | Seq -> ()
  | Shared _ | Cuda_sim _ | Check ->
    invalid_arg (facade ctx ^ ".partition: switch the backend to Seq before partitioning"));
  ctx.dist <- Some (Dist.build ctx.env ~ndim:ctx.ndim ~procs ~refs);
  match (ctx.fault, dist_comm ctx) with
  | Some f, Some comm -> Am_simmpi.Comm.attach_fault comm f
  | _ -> ()

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

let comm_stats ctx = Option.map Am_simmpi.Comm.stats (dist_comm ctx)

(* ---- Multi-block halos ---------------------------------------------------- *)

let decl_halo ctx ~name ~src ~dst ~src_range ~dst_range ?orientation () =
  if ctx.dist <> None then
    invalid_arg (facade ctx ^ ".decl_halo: declare halos before partitioning");
  Multiblock.decl_halo ~name ~src ~dst ~src_range ~dst_range ?orientation ()

let halo_transfer ctx halos =
  flush ctx;
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
  Trace.record ctx.trace descr;
  (* The injected rank crash counts parallel loops on the injector itself,
     so the trigger position survives a recovery restart's fresh context. *)
  Option.iter Am_simmpi.Fault.note_loop ctx.fault;
  let foot = footprint ctx descr args kernel in
  if lazy_active ctx then begin
    (* Record instead of run.  A non-Read global is a demanded result (the
       caller reads the reduction buffer on return), so the loop is queued —
       keeping it eligible as the chain's last tiled entry — and the chain
       flushes before par_loop returns. *)
    let snapshots =
      List.filter_map
        (function
          | Arg_gbl { buf; access = Access.Read; _ } -> Some (buf, Array.copy buf)
          | Arg_gbl _ | Arg_dat _ | Arg_idx _ -> None)
        args
    in
    let demands_result =
      List.exists
        (function
          | Arg_gbl { access; _ } -> access <> Access.Read
          | Arg_dat _ | Arg_idx _ -> false)
        args
    in
    enqueue ctx
      (Q_loop
         {
           q_name = name;
           q_descr = descr;
           q_range = range;
           q_args = args;
           q_kernel = kernel;
           q_handle = handle;
           q_snapshots = snapshots;
           q_foot = foot;
         });
    Am_obs.Counters.incr Am_obs.Obs.chain_loops;
    if demands_result || ctx.chain_len >= max_chain then flush ctx
  end
  else begin
    let t0 = now () in
    let traced = Am_obs.Obs.tracing () in
    let gc0 = Profile.gc_sample () in
    if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Loop name;
    let halo_seconds = ref 0.0 and overlap_seconds = ref 0.0 in
    let execute () =
      match ctx.dist with
      | Some d ->
        (* Halo tightening from sampled negatives is the explicit opt-in: a
           read the probes never triggered would otherwise silently consume
           stale ghost layers. *)
        let ext =
          if ctx.tighten then Option.map (fun fi -> fi.Probe.in_read_ext) foot else None
        in
        Dist.par_loop ?ext ~halo_seconds ~overlap_seconds d ~range ~args ~kernel
      | None -> (
        let compiled = Option.map (fun h -> resolve_compiled h args) handle in
        match ctx.backend with
        | Seq -> Exec.run_seq ?compiled ~range ~args ~kernel ()
        | Shared { pool } ->
          Exec.run_shared ?compiled ~axis:(outer_axis ctx) pool ~range ~args ~kernel
        | Cuda_sim config -> Exec.run_cuda ?compiled config ~range ~args ~kernel
        | Check ->
          Exec_check.run ~light:(light_of foot) ~ndim:ctx.ndim ~name ~range ~args ~kernel
            ())
    in
    (match ctx.checkpoint with
    | None -> execute ()
    | Some session ->
      let gbl_out =
        List.filter_map
          (function
            | Arg_gbl { buf; access; _ } when access <> Access.Read -> Some buf
            | Arg_gbl _ | Arg_dat _ | Arg_idx _ -> None)
          args
      in
      Am_checkpoint.Runtime.step ~gbl_out session ~descr ~run:execute);
    if traced then Am_obs.Obs.end_span ();
    let seconds = now () -. t0 in
    Profile.record_gc ctx.profile ~name gc0;
    Profile.record ctx.profile ~name ~seconds ~bytes:(Descr.total_bytes descr)
      ~elements:(range_size range);
    if ctx.dist <> None then
      Profile.record_halo ctx.profile ~name ~overlapped:!overlap_seconds
        ~seconds:!halo_seconds ()
  end

(* ---- Physical boundary conditions (update_halo) --------------------------- *)

(* Reflective ghost-ring update with per-axis sign flips (velocity normal
   components) and centre-aware mirroring for staggered fields: the
   library-provided equivalent of CloverLeaf's update_halo. *)
let mirror_halo ctx ~depth ~signs ~centers dat =
  match ctx.dist with
  | Some d -> Dist.mirror d dat ~depth ~signs ~centers
  | None ->
    let run () = Boundary.mirror ~depth ~signs ~centers dat in
    if lazy_active ctx then begin
      (* Order-preserving barrier in the chain: ghost layers depend on the
         whole interior, so the mirror runs between tiled segments. *)
      enqueue ctx (Q_op (run, "mirror_halo"));
      if ctx.chain_len >= max_chain then flush ctx
    end
    else run ()

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

(* Checkpointing and lazy chains compose by sequencing, not interleaving:
   every entry point below flushes queued loops first (a snapshot must see
   their effects, and a restore must never be followed by a stale queued
   re-run), and [lazy_active] keeps recording off while a session is
   live — the checkpoint runtime needs each loop's side effects at its
   program point to count steps and capture domains. *)
let enable_checkpointing ctx =
  flush ctx;
  if ctx.checkpoint = None then
    ctx.checkpoint <- Some (Am_checkpoint.Runtime.create ~fns:(checkpoint_fns ctx))

let live_session ctx what =
  flush ctx;
  match ctx.checkpoint with
  | Some session -> session
  | None ->
    invalid_arg (Printf.sprintf "%s.%s: checkpointing not enabled" (facade ctx) what)

let request_checkpoint ctx =
  Am_checkpoint.Runtime.request_checkpoint (live_session ctx "request_checkpoint")

let checkpoint_session ctx = ctx.checkpoint

let checkpoint_to_file ctx ~path =
  Am_checkpoint.Runtime.save_to_file (live_session ctx "checkpoint_to_file") ~path

let recover_from_file ctx ~path =
  flush ctx;
  ctx.checkpoint <-
    Some (Am_checkpoint.Runtime.recover_from_file ~path ~fns:(checkpoint_fns ctx))
