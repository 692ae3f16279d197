(* Execution engines of the OPS backends, for blocks of any dimension.

   All engines share one element runner: per argument the kernel receives a
   staging buffer gathered through the argument's stencil, and written
   arguments (always center-only stencils, enforced by validation) are
   scattered back after the call.  Because writes target only the iteration
   point, structured loops are race-free under any disjoint partition of the
   range — no colouring is needed, which is why OPS parallelises rows
   directly (and why its OpenMP backend handles NUMA better than hand-coded
   code, Fig 5).

   Data is addressed through affine [view]s (base + z*plane + y*row +
   x*col), so each dataset argument compiles to one table entry: its data
   array, dimension, access kind and one flat offset per stencil point.
   The runner walks these tables with no closure call besides the kernel
   and no allocation per point: each argument's base is computed once per
   row, the point's base adds [x * col], and the gather is a straight
   indexed copy.  A grid-transfer (strided) argument maps [x] through its
   stride in the same loop (its row term is strided once per row).
   Arguments are gathered in argument order, the kernel runs, then only the
   written arguments are scattered, in argument order.
   The distributed backend substitutes rank-local window views (which are
   affine too) without touching the traversal logic.  Inner loops use
   unsafe indexing; [Types.validate_args] proves every stencil stays inside
   the addressable padded box over the whole range before execution
   starts. *)

module Access = Am_core.Access
open Types

type dat_arg = {
  slot : int; (* position in the argument list and the staging buffers *)
  view : view;
  vdata : float array; (* [view.vdata] *)
  vcol : int; (* [view.vcol] *)
  dim : int;
  stencil : stencil;
  offsets : int array; (* flat delta of each stencil point *)
  access : Access.t;
  inc : bool; (* staged from zero and added back *)
  stride : stride;
  strided : bool; (* grid-transfer: [x] maps through the stride *)
}

type compiled_arg =
  | C_dat of dat_arg
  | C_gbl of { user_buf : float array; access : Access.t }
  | C_idx of int

type t = {
  args : compiled_arg array; (* argument order *)
  dats : dat_arg array; (* every dataset argument, in argument order *)
  written : int array; (* indices into [dats] of the written ones, in order *)
  idxs : int array; (* slots of index arguments *)
}

type resolvers = { resolve_dat : dat -> view }

let global_resolvers = { resolve_dat = dat_view }

(* Per-stencil-point flat deltas from the iteration point's base index. *)
let build_offsets view stencil =
  Array.map
    (fun (dx, dy, dz) -> (dz * view.vplane) + (dy * view.vrow) + (dx * view.vcol))
    stencil

(* Indices of the entries of [a] satisfying [f], ascending. *)
let indices_where f a =
  Array.of_list (List.filter (fun i -> f a.(i)) (List.init (Array.length a) Fun.id))

let of_args args =
  let dats =
    Array.of_list
      (List.filter_map (function C_dat a -> Some a | C_gbl _ | C_idx _ -> None)
         (Array.to_list args))
  in
  { args; dats;
    written = indices_where (fun a -> Access.writes a.access) dats;
    idxs = indices_where (function C_idx _ -> true | C_dat _ | C_gbl _ -> false) args }

let compile_dat slot view ~dim ~stencil ~access ~stride =
  (match access with
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"
  | Access.Read | Access.Write | Access.Rw | Access.Inc -> ());
  { slot; view; vdata = view.vdata; vcol = view.vcol; dim; stencil;
    offsets = build_offsets view stencil; access; inc = access = Access.Inc; stride;
    strided = not (is_unit_stride stride) }

let compile ?(resolvers = global_resolvers) args =
  let one slot = function
    | Arg_dat { dat; stencil; access; stride } ->
      C_dat
        (compile_dat slot (resolvers.resolve_dat dat) ~dim:dat.dim ~stencil ~access ~stride)
    | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
    | Arg_idx n -> C_idx n
  in
  of_args (Array.of_list (List.mapi one args))

(* Freshness of a cached executor against the live arguments: dataset
   backing arrays are compared physically (window substitution or any data
   replacement invalidates). *)
let compiled_matches t args =
  Array.length t.args = List.length args
  && List.for_all2
       (fun c arg ->
         match (c, arg) with
         | C_dat cd, Arg_dat { dat; stencil; access; stride } ->
           cd.vdata == dat.data && cd.access = access && cd.stencil = stencil
           && cd.stride = stride
         | C_gbl cg, Arg_gbl { buf; access; _ } ->
           cg.user_buf == buf && cg.access = access
         | C_idx n, Arg_idx m -> n = m
         | (C_dat _ | C_gbl _ | C_idx _), _ -> false)
       (Array.to_list t.args) args

let has_globals t =
  Array.exists (function C_gbl _ -> true | C_dat _ | C_idx _ -> false) t.args

let make_buffers t =
  Array.map
    (function
      | C_dat { dim; stencil; _ } -> Array.make (dim * Array.length stencil) 0.0
      | C_idx n -> Array.make n 0.0
      | C_gbl { user_buf; access } -> (
        match access with
        | Access.Read | Access.Min | Access.Max -> Array.copy user_buf
        | Access.Inc -> Array.make (Array.length user_buf) 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "ops: Write/Rw access on a global argument"))
    t.args

(* Fold reduction partials [src] into [dst] per the access mode
   (Inc/Min/Max are associative and commutative). *)
let reduce_into access dst src =
  for d = 0 to Array.length dst - 1 do
    match access with
    | Access.Inc -> dst.(d) <- dst.(d) +. src.(d)
    | Access.Min -> dst.(d) <- Float.min dst.(d) src.(d)
    | Access.Max -> dst.(d) <- Float.max dst.(d) src.(d)
    | Access.Read | Access.Write | Access.Rw -> ()
  done

let merge_globals t buffers =
  Array.iteri
    (fun i c ->
      match c with
      | C_gbl { user_buf; access } -> reduce_into access user_buf buffers.(i)
      | C_dat _ | C_idx _ -> ())
    t.args

(* Pairwise tree reduction of per-worker accumulator sets into the user
   buffers (replaces the mutex-serialised per-chunk merge). *)
let merge_worker_globals t states =
  match states with
  | [] -> ()
  | states ->
    let traced = Am_obs.Obs.tracing () in
    if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Reduce "merge_globals";
    let arr = Array.of_list states in
    let n = ref (Array.length arr) in
    while !n > 1 do
      let half = (!n + 1) / 2 in
      for i = 0 to !n - half - 1 do
        Array.iteri
          (fun k c ->
            match c with
            | C_gbl { access; _ } -> reduce_into access arr.(i).(k) arr.(half + i).(k)
            | C_dat _ | C_idx _ -> ())
          t.args
      done;
      n := half
    done;
    merge_globals t arr.(0);
    if traced then Am_obs.Obs.end_span ()

(* ---- The runner ------------------------------------------------------ *)

(* Box runner over caller-owned tables and staging buffers: every backend
   below runs one or more boxes through it (the whole range, a worker's
   slab, a GPU tile) and merges globals itself afterwards.  [rows.(i)] is
   argument [i]'s base index at x = 0 of the current row; the point's base
   is [rows.(i) + x * vcol]. *)
let run_range t buffers ~range ~kernel =
  let dats = t.dats and written = t.written and idxs = t.idxs in
  let nd = Array.length dats in
  let rows = Array.make nd 0 in
  for z = range.zlo to range.zhi - 1 do
    for y = range.ylo to range.yhi - 1 do
      for i = 0 to nd - 1 do
        let a = Array.unsafe_get dats i in
        let v = a.view and s = a.stride in
        let by = if a.strided then floordiv (y * s.yn) s.yd else y in
        let bz = if a.strided then floordiv (z * s.zn) s.zd else z in
        Array.unsafe_set rows i (v.vbase + (bz * v.vplane) + (by * v.vrow))
      done;
      for x = range.xlo to range.xhi - 1 do
        for i = 0 to nd - 1 do
          let a = Array.unsafe_get dats i in
          let buf = Array.unsafe_get buffers a.slot in
          let dim = a.dim and offsets = a.offsets in
          if a.inc then
            for d = 0 to dim - 1 do
              Array.unsafe_set buf d 0.0
            done
          else begin
            (* Write also gathers: kernels see the previous contents. *)
            let bx = if a.strided then floordiv (x * a.stride.xn) a.stride.xd else x in
            let base = Array.unsafe_get rows i + (bx * a.vcol) and vdata = a.vdata in
            if dim = 1 then
              for p = 0 to Array.length offsets - 1 do
                Array.unsafe_set buf p
                  (Array.unsafe_get vdata (base + Array.unsafe_get offsets p))
              done
            else
              for p = 0 to Array.length offsets - 1 do
                let src = base + Array.unsafe_get offsets p in
                for d = 0 to dim - 1 do
                  Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
                done
              done
          end
        done;
        for k = 0 to Array.length idxs - 1 do
          let buf = Array.unsafe_get buffers (Array.unsafe_get idxs k) in
          let n = Array.length buf in
          Array.unsafe_set buf 0 (Float.of_int x);
          if n > 1 then Array.unsafe_set buf 1 (Float.of_int y);
          if n > 2 then Array.unsafe_set buf 2 (Float.of_int z)
        done;
        kernel buffers;
        (* Written arguments are center-only and unit-stride by validation. *)
        for k = 0 to Array.length written - 1 do
          let i = Array.unsafe_get written k in
          let a = Array.unsafe_get dats i in
          let buf = Array.unsafe_get buffers a.slot and vdata = a.vdata in
          let base = Array.unsafe_get rows i + (x * a.vcol) in
          if a.inc then
            for d = 0 to a.dim - 1 do
              let j = base + d in
              Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf d)
            done
          else
            for d = 0 to a.dim - 1 do
              Array.unsafe_set vdata (base + d) (Array.unsafe_get buf d)
            done
        done
      done
    done
  done

(* ---- Sequential ----------------------------------------------------- *)

let run_seq compiled ~range ~kernel =
  let buffers = make_buffers compiled in
  run_range compiled buffers ~range ~kernel;
  if has_globals compiled then merge_globals compiled buffers

(* ---- Shared memory ("OpenMP") --------------------------------------- *)

(* The outermost used [axis] (rows in 2D, planes in 3D) is split across the
   pool, with pooled worker-local buffers and a reduction-tree merge. *)
let run_shared compiled ~axis pool ~range ~kernel =
  let states =
    Am_taskpool.Pool.parallel_for_local pool ~lo:(range_lo range axis)
      ~hi:(range_hi range axis)
      ~local:(fun () -> make_buffers compiled)
      ~body:(fun buffers lo hi ->
        run_range compiled buffers ~range:(with_axis range axis lo hi) ~kernel)
  in
  if has_globals compiled then merge_worker_globals compiled states

(* ---- GPU simulator --------------------------------------------------- *)

(* Thread-block tile extents per axis (unused axes hold one tile), and
   whether dataset arguments are staged through scratch tiles. *)
type cuda_config = { tile_x : int; tile_y : int; tile_z : int; staged : bool }

let default_cuda_config = { tile_x = 32; tile_y = 4; tile_z = 4; staged = true }

(* Staged tile execution: every dataset argument is copied (with the
   stencil's per-axis reach as a ring) into a scratch tile, the kernel works
   on the scratch, and written center regions are copied back — the
   structure of OPS's shared-memory CUDA kernels. *)
let run_tile t buffers kernel args tile =
  let args = Array.of_list args in
  let stage (a : dat_arg) =
    if a.strided then
      (* Grid-transfer reads bypass the scratch tile (their footprint is
         not tile-shaped); they read global memory directly, as OPS's
         generated multigrid kernels do. *)
      a
    else begin
      let dat =
        match args.(a.slot) with
        | Arg_dat { dat; _ } -> dat
        | Arg_gbl _ | Arg_idx _ -> assert false
      in
      let { view; dim; stencil; access; stride; _ } = a in
      let reach ax =
        Array.fold_left (fun m o -> max m (abs (offset_axis o ax))) 0 stencil
      in
      let s =
        Array.init 3 (fun ax -> (range_lo tile ax - reach ax, range_hi tile ax + reach ax))
      in
      let w = snd s.(0) - fst s.(0) and h = snd s.(1) - fst s.(1) in
      let scratch = Array.make (w * h * (snd s.(2) - fst s.(2)) * dim) 0.0 in
      let sview =
        { vdata = scratch;
          vbase = (((((-fst s.(2)) * h) - fst s.(1)) * w) - fst s.(0)) * dim;
          vplane = h * w * dim; vrow = w * dim; vcol = dim }
      in
      if Access.reads access || access = Access.Write then begin
        (* Clamped to the addressable box: ring cells the stencil never
           reaches may fall outside the ghost ring when the range itself
           extends into it (validation guarantees actual reads stay
           inside). *)
        let clamp ax =
          (max (fst s.(ax)) (lo_bound dat ax), min (snd s.(ax)) (hi_bound dat ax))
        in
        let (x0, x1), (y0, y1), (z0, z1) = (clamp 0, clamp 1, clamp 2) in
        iter_box { xlo = x0; xhi = x1; ylo = y0; yhi = y1; zlo = z0; zhi = z1 }
          (fun x y z ->
            for c = 0 to dim - 1 do
              vset sview ~x ~y ~z ~c (vget view ~x ~y ~z ~c)
            done)
      end;
      compile_dat a.slot sview ~dim ~stencil ~access ~stride
    end
  in
  let staged =
    of_args (Array.map (function C_dat a -> C_dat (stage a) | c -> c) t.args)
  in
  run_range staged buffers ~range:tile ~kernel;
  (* Write back center regions of written datasets; increment-only scratch
     tiles start from zero, so they are added. *)
  Array.iter
    (fun i ->
      let { view; dim; inc; _ } = t.dats.(i) and sview = staged.dats.(i).view in
      iter_box tile (fun x y z ->
          for d = 0 to dim - 1 do
            let v = vget sview ~x ~y ~z ~c:d in
            if inc then vset view ~x ~y ~z ~c:d (vget view ~x ~y ~z ~c:d +. v)
            else vset view ~x ~y ~z ~c:d v
          done))
    t.written

let run_cuda compiled config ~range ~args ~kernel =
  let buffers = make_buffers compiled in
  let tiles lo hi t = (hi - lo + t - 1) / t in
  for tz = 0 to tiles range.zlo range.zhi config.tile_z - 1 do
    for ty = 0 to tiles range.ylo range.yhi config.tile_y - 1 do
      for tx = 0 to tiles range.xlo range.xhi config.tile_x - 1 do
        let xlo = range.xlo + (tx * config.tile_x) in
        let ylo = range.ylo + (ty * config.tile_y) in
        let zlo = range.zlo + (tz * config.tile_z) in
        let tile =
          { xlo; xhi = min range.xhi (xlo + config.tile_x); ylo;
            yhi = min range.yhi (ylo + config.tile_y); zlo;
            zhi = min range.zhi (zlo + config.tile_z) }
        in
        if config.staged then run_tile compiled buffers kernel args tile
        else run_range compiled buffers ~range:tile ~kernel
      done
    done
  done;
  if has_globals compiled then merge_globals compiled buffers
