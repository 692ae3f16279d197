(* Distributed-memory backend of OPS: Cartesian p0 x p1 x p2 decomposition.

   The production OPS decomposes structured blocks in every dimension (the
   paper's CloverLeaf runs on Titan use process grids).  The reference
   index space is split into contiguous chunks along each axis, one per
   process coordinate; rank r sits at (rx, ry, rz) with
   r = (rz*py + ry)*px + rx.  One axis split gives the row (2D), chunk (1D)
   and slab (3D) decompositions, two give the 2D grid and the 3D y x z
   pencils.  Each dataset is scattered into per-rank windows holding the
   owned box plus a ghost ring of the dataset's halo depth; edge ranks own
   the global ghost cells of their side and any extra cells of staggered
   datasets (e.g. a CloverLeaf y-velocity with ysize+1 rows).

   Because OPS writes are center-only, owner-compute needs no reductions:
   the only communication is the on-demand ghost exchange before loops
   that read through offset stencils — triggered, exactly as in the paper,
   by the access descriptors and declared stencils.  The exchange runs one
   axis at a time; each slab spans the whole stored extent of the other
   axes, so a later axis carries the corners filled by an earlier one and
   no diagonal messages are needed.  Each dataset tracks how many ghost
   layers are fresh ([fresh_depth]), so a loop whose stencils reach k
   layers triggers a k-deep exchange, not a full one — OPS's per-stencil
   update_halo depths. *)

module Obs = Am_obs.Obs
module Obs_counters = Am_obs.Counters
module Cat = Am_obs.Tracer
module Access = Am_core.Access
module Comm = Am_simmpi.Comm
open Types

type window = {
  owned : range; (* owned points, global numbering, edge ghosts included *)
  stored : range; (* owned box plus ghosts, within the addressable box *)
  view : view;
}

(* [fresh_depth] = how many ghost layers are currently valid (0 after a
   write, up to the dataset's halo after a full exchange). *)
type dat_dist = { windows : window array; mutable fresh_depth : int }

(* Intra-rank execution: hybrid MPI+OpenMP runs each rank's box through
   the shared-memory engine (centre-only writes make this race-free with
   no per-rank planning needed). *)
type rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

type t = {
  comm : Comm.t;
  ndim : int;
  procs : int array; (* processes per axis; 1 on undecomposed axes *)
  chunk : int array array; (* chunk.(a).(p) = first reference cell of position p *)
  dat_dists : (int, dat_dist) Hashtbl.t;
  env : env;
  mutable rank_exec : rank_exec;
  mutable eager_halo : bool;
  mutable overlap : bool; (* post exchange, run interior, wait, run boundary *)
}

let n_ranks t = t.procs.(0) * t.procs.(1) * t.procs.(2)

(* Process coordinate of rank [r] along [axis], and the rank distance
   between neighbours along it. *)
let pos t r axis =
  match axis with
  | 0 -> r mod t.procs.(0)
  | 1 -> r / t.procs.(0) mod t.procs.(1)
  | _ -> r / (t.procs.(0) * t.procs.(1))

let rank_step t axis =
  match axis with 0 -> 1 | 1 -> t.procs.(0) | _ -> t.procs.(0) * t.procs.(1)

(* Owned interval of rank [r] along [axis], intersected with [lo, hi): the
   edge positions extend to the bounds. *)
let own_axis t r axis ~lo ~hi =
  let p = pos t r axis in
  ( (if p = 0 then lo else max lo t.chunk.(axis).(p)),
    if p = t.procs.(axis) - 1 then hi else min hi t.chunk.(axis).(p + 1) )

let box_of f =
  let (xlo, xhi), (ylo, yhi), (zlo, zhi) = (f 0, f 1, f 2) in
  { xlo; xhi; ylo; yhi; zlo; zhi }

let nonempty r = r.xlo < r.xhi && r.ylo < r.yhi && r.zlo < r.zhi

let make_window t dat r =
  let owned =
    box_of (fun a -> own_axis t r a ~lo:(lo_bound dat a) ~hi:(hi_bound dat a))
  in
  let stored =
    box_of (fun a ->
        ( max (lo_bound dat a) (range_lo owned a - ghost dat a),
          min (hi_bound dat a) (range_hi owned a + ghost dat a) ))
  in
  let view = box_view (Array.make (range_size stored * dat.dim) 0.0) ~dim:dat.dim stored in
  { owned; stored; view }

let dat_dist t dat = Hashtbl.find t.dat_dists dat.dat_id

(* Push the global array's current contents into every window (ghosts too). *)
let push t dat =
  let dd = dat_dist t dat in
  let src = dat_view dat in
  Array.iter (fun w -> copy_box ~src ~dst:w.view ~dim:dat.dim w.stored) dd.windows;
  dd.fresh_depth <- dat.halo

let build env ~ndim ~procs ~refs =
  if Array.exists (fun p -> p <= 0) procs then
    invalid_arg "Ops dist: process counts must be positive";
  let max_halo = List.fold_left (fun acc d -> max acc d.halo) 0 (dats env) in
  let chunk =
    Array.init 3 (fun a ->
        let p = procs.(a) and n = refs.(a) in
        if n < p then
          invalid_arg (Printf.sprintf "Ops dist: %d cells for %d ranks on axis %d" n p a);
        let c = Array.init (p + 1) (fun r -> r * n / p) in
        for r = 0 to p - 1 do
          if p > 1 && c.(r + 1) - c.(r) < max_halo then
            invalid_arg
              (Printf.sprintf
                 "Ops dist: axis %d chunk %d owns %d cells, fewer than the ghost depth %d"
                 a r
                 (c.(r + 1) - c.(r)) max_halo)
        done;
        c)
  in
  List.iter
    (fun d ->
      for a = 0 to 2 do
        if size d a < refs.(a) then
          invalid_arg
            (Printf.sprintf
               "Ops dist: dat %s has %d cells on axis %d, reference space has %d" d.dat_name
               (size d a) a refs.(a))
      done)
    (dats env);
  let t =
    {
      comm = Comm.create ~n_ranks:(procs.(0) * procs.(1) * procs.(2));
      ndim;
      procs;
      chunk;
      dat_dists = Hashtbl.create 16;
      env;
      rank_exec = Rank_seq;
      eager_halo = false;
      overlap = false;
    }
  in
  List.iter
    (fun dat ->
      let windows = Array.init (n_ranks t) (make_window t dat) in
      Hashtbl.add t.dat_dists dat.dat_id { windows; fresh_depth = 0 };
      push t dat)
    (dats env);
  t

(* Ghost slab of depth [h] that rank window [w] receives on the [upper] or
   lower side of [axis] — the same global box its neighbour sends from its
   owned layers, spanning the whole stored extent of the other axes. *)
let ghost_slab w axis h ~upper =
  let b = range_hi w.owned axis and a = range_lo w.owned axis in
  if upper then with_axis w.stored axis b (b + h) else with_axis w.stored axis (a - h) a

(* Post the [h]-deep exchange along [axis]: for every neighbour pair
   (r, rn) along it, r's top owned layers go to rn's lower ghosts and rn's
   bottom owned layers to r's upper ghosts.  Returns the posted receives,
   tagged with the receiving window and side. *)
let post_axis t dat dd axis h =
  let traced = Obs.tracing () in
  let send ~src ~dst box =
    if traced then Obs.begin_span ~lane:src ~cat:Cat.Halo_pack "pack";
    let payload = Array.make (range_size box * dat.dim) 0.0 in
    copy_box ~src:dd.windows.(src).view ~dst:(box_view payload ~dim:dat.dim box) ~dim:dat.dim
      box;
    if traced then Obs.end_span ~lane:src ();
    ignore (Comm.isend t.comm ~src ~dst payload)
  in
  let pairs =
    List.filter_map
      (fun r ->
        if pos t r axis < t.procs.(axis) - 1 then Some (r, r + rank_step t axis) else None)
      (List.init (n_ranks t) Fun.id)
  in
  List.iter
    (fun (r, rn) ->
      send ~src:r ~dst:rn (ghost_slab dd.windows.(rn) axis h ~upper:false);
      send ~src:rn ~dst:r (ghost_slab dd.windows.(r) axis h ~upper:true))
    pairs;
  List.concat_map
    (fun (r, rn) ->
      [
        (rn, false, Comm.irecv t.comm ~src:r ~dst:rn);
        (r, true, Comm.irecv t.comm ~src:rn ~dst:r);
      ])
    pairs

let complete_axis t dat dd axis h recvs =
  let traced = Obs.tracing () in
  List.iter
    (fun (r, upper, req) ->
      let payload = Comm.wait t.comm req in
      let w = dd.windows.(r) in
      if traced then Obs.begin_span ~lane:r ~cat:Cat.Halo_unpack "unpack";
      let box = ghost_slab w axis h ~upper in
      copy_box ~src:(box_view payload ~dim:dat.dim box) ~dst:w.view ~dim:dat.dim box;
      if traced then Obs.end_span ~lane:r ())
    recvs

let split_axes t = List.filter (fun a -> t.procs.(a) > 1) [ 0; 1; 2 ]

(* An in-flight exchange: its depth and the posted receives of the first
   split axis; the later axes run at completion, after the corners they
   carry have arrived. *)
type token = { tok_h : int; tok_recvs : (int * bool * Comm.request) list }

(* Pack/post half of a dataset's exchange to [depth] layers.  On-demand by
   default (skip — [None] — when enough ghost layers are fresh);
   [eager_halo] forces a full exchange every time, for the halo-policy
   ablation. *)
let exchange_start ?depth t dat =
  let dd = dat_dist t dat in
  let need = match depth with Some d -> min d dat.halo | None -> dat.halo in
  if dd.fresh_depth < need || t.eager_halo then begin
    Comm.count_exchange t.comm;
    let h = if t.eager_halo then dat.halo else need in
    match split_axes t with
    | first :: _ when h > 0 -> Some { tok_h = h; tok_recvs = post_axis t dat dd first h }
    | _ ->
      dd.fresh_depth <- max dd.fresh_depth h;
      None
  end
  else None

(* Wait half: completes the first axis, then exchanges the remaining split
   axes in order. *)
let exchange_finish t dat token =
  let dd = dat_dist t dat in
  let h = token.tok_h in
  match split_axes t with
  | first :: rest ->
    complete_axis t dat dd first h token.tok_recvs;
    List.iter (fun a -> complete_axis t dat dd a h (post_axis t dat dd a h)) rest;
    dd.fresh_depth <- max dd.fresh_depth h
  | [] -> ()

let exchange ?depth t dat =
  match exchange_start ?depth t dat with
  | None -> ()
  | Some token -> exchange_finish t dat token

(* ---- Loop execution --------------------------------------------------- *)

let par_loop ~halo_seconds ~overlap_seconds t ~range ~args ~kernel =
  (* Grid-transfer strides cross the decomposition arbitrarily:
     unsupported on partitioned contexts (multigrid levels would need a
     proportional decomposition). *)
  List.iter
    (function
      | Arg_dat { stride; _ } when not (is_unit_stride stride) ->
        invalid_arg "ops-mpi: strided (grid-transfer) stencils are unsupported on \
                     partitioned contexts"
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  (* Ghost exchanges for stencil-read datasets (deduplicated per dataset),
     as deep as the deepest declared stencil of this loop on the dataset. *)
  let seen = Hashtbl.create 4 in
  List.iter
    (function
      | Arg_dat { dat; stencil; access; _ }
        when Access.reads access && stencil_extent stencil > 0 ->
        let need = stencil_extent stencil in
        let prev = try Hashtbl.find seen dat.dat_id with Not_found -> 0 in
        if need > prev then Hashtbl.replace seen dat.dat_id need
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  let needs =
    List.filter_map
      (fun d -> Option.map (fun need -> (d, need)) (Hashtbl.find_opt seen d.dat_id))
      (dats t.env)
  in
  let exposed = ref 0.0 and xfer = ref 0.0 in
  (* Sub-box of the range rank [r] executes: its owned region of the
     reference space, the edge positions extending without bound. *)
  let rank_box r =
    let b =
      box_of (fun a -> own_axis t r a ~lo:(range_lo range a) ~hi:(range_hi range a))
    in
    if nonempty b then Some b else None
  in
  let run_box r box =
    if nonempty box then begin
      let compiled =
        Exec.compile
          ~resolvers:{ Exec.resolve_dat = (fun d -> (dat_dist t d).windows.(r).view) }
          args
      in
      match t.rank_exec with
      | Rank_seq -> Exec.run_seq compiled ~range:box ~kernel
      | Rank_shared pool -> Exec.run_shared compiled ~axis:(t.ndim - 1) pool ~range:box ~kernel
    end
  in
  (* A global Inc reduction is summed in iteration order: splitting the
     range would reorder the additions and change the rounding, so such
     loops keep the blocking exchange.  Min/Max reductions and dat writes
     are order-insensitive. *)
  let splittable =
    not
      (List.exists
         (function
           | Arg_gbl { access = Access.Inc; _ } -> true
           | Arg_gbl _ | Arg_dat _ | Arg_idx _ -> false)
         args)
  in
  let tokens =
    if not (t.overlap && splittable) then begin
      List.iter
        (fun (dat, need) ->
          let t0 = Unix.gettimeofday () in
          exchange ~depth:need t dat;
          exposed := !exposed +. (Unix.gettimeofday () -. t0))
        needs;
      []
    end
    else
      List.filter_map
        (fun (dat, need) ->
          let t0 = Unix.gettimeofday () in
          let tok = exchange_start ~depth:need t dat in
          xfer := !xfer +. (Unix.gettimeofday () -. t0);
          Option.map (fun tok -> (dat, tok, need)) tok)
        needs
  in
  let ranks = List.init (n_ranks t) Fun.id in
  if tokens = [] then List.iter (fun r -> Option.iter (run_box r) (rank_box r)) ranks
  else begin
    (* Interior/boundary split: the interior box stays [margin] away from
       every internal partition boundary, so its stencils never read a
       ghost in flight and it never writes a layer a later exchange axis
       packs at wait time; it runs while the messages are in flight, and
       the boundary frame after the waits.  Centre-only writes make the
       order immaterial, so results match blocking bitwise. *)
    let margin = List.fold_left (fun acc (_, _, need) -> max acc need) 0 tokens in
    let interior r box =
      box_of (fun a ->
          let lo = range_lo box a and hi = range_hi box a and p = pos t r a in
          let ilo = if p > 0 then max lo (min hi (t.chunk.(a).(p) + margin)) else lo in
          let ihi =
            if p < t.procs.(a) - 1 then min hi (max ilo (t.chunk.(a).(p + 1) - margin))
            else hi
          in
          (ilo, max ilo ihi))
    in
    let bounds =
      List.filter_map
        (fun r -> Option.map (fun b -> (r, b, interior r b)) (rank_box r))
        ranks
    in
    let traced = Obs.tracing () in
    let t_core = Unix.gettimeofday () in
    List.iter
      (fun (r, _, core) ->
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "core";
        run_box r core;
        Obs_counters.add Obs.core_elements (range_size core);
        if traced then Obs.end_span ~lane:r ())
      bounds;
    let core_seconds = Unix.gettimeofday () -. t_core in
    let t_wait = Unix.gettimeofday () in
    List.iter (fun (dat, tok, _) -> exchange_finish t dat tok) tokens;
    xfer := !xfer +. (Unix.gettimeofday () -. t_wait);
    (* Ranks run back to back in the simulator, so overlap is credited
       analytically: exchange time covered by interior compute is hidden,
       only the excess is exposed. *)
    let hidden = Float.min !xfer core_seconds in
    exposed := !exposed +. (!xfer -. hidden);
    overlap_seconds := !overlap_seconds +. hidden;
    (* Boundary frame, peeled axis by axis: the two outer slabs of the
       remaining box along the axis, then shrink the box to the interior
       interval. *)
    List.iter
      (fun (r, full, core) ->
        if traced then Obs.begin_span ~lane:r ~cat:Cat.Loop "boundary";
        let box = ref full in
        for a = 2 downto 0 do
          run_box r (with_axis !box a (range_lo full a) (range_lo core a));
          run_box r (with_axis !box a (range_hi core a) (range_hi full a));
          box := with_axis !box a (range_lo core a) (range_hi core a)
        done;
        Obs_counters.add Obs.boundary_elements (range_size full - range_size core);
        if traced then Obs.end_span ~lane:r ())
      bounds
  end;
  halo_seconds := !halo_seconds +. !exposed;
  (* Post: written datasets' ghosts are stale; count global reductions. *)
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        (dat_dist t dat).fresh_depth <- 0
      | Arg_gbl { access; _ } when access <> Access.Read ->
        Comm.count_reduction t.comm
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args

let intersect a b =
  box_of (fun i -> (max (range_lo a i) (range_lo b i), min (range_hi a i) (range_hi b i)))

(* Assemble the interior of a dataset from its owners. *)
let fetch_interior t dat =
  let box = interior dat in
  let out = Array.make (range_size box * dat.dim) 0.0 in
  let dst = box_view out ~dim:dat.dim box in
  Array.iter
    (fun w -> copy_box ~src:w.view ~dst ~dim:dat.dim (intersect w.owned box))
    (dat_dist t dat).windows;
  out

(* Pull every window's owned values (global ghosts included — the edge
   ranks own them) back into the global padded array: the inverse of
   [push].  Reading only from owners never sees a stale ghost copy, so the
   result is exact whatever the dataset's current [fresh_depth]. *)
let pull t dat =
  let dst = dat_view dat in
  Array.iter
    (fun w -> copy_box ~src:w.view ~dst ~dim:dat.dim w.owned)
    (dat_dist t dat).windows

(* Reflective boundary mirror on every rank's window (see [Boundary]): each
   window mirrors only the global ghost cells it owns, over its stored
   box, so each edge rank's corners are self-consistent; ghost copies of
   other ranks' cells may now be stale, so the dataset is marked for
   re-exchange. *)
let mirror t dat ~depth ~signs ~centers =
  let dd = dat_dist t dat in
  Array.iter
    (fun w ->
      Boundary.apply ~view:w.view ~dat ~owned:w.owned ~stored:w.stored ~depth ~signs
        ~centers)
    dd.windows;
  dd.fresh_depth <- 0
