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
   x*col), so each argument compiles to one [int array] of flat offsets —
   one delta per stencil point — and the gather is a straight indexed copy
   with no closure call or index arithmetic beyond a single base
   computation per point.  Unused axes iterate over the single coordinate
   0; on blocks of at most two dimensions ([planar]) the single-component
   closures drop the z term altogether.
   The distributed backend substitutes rank-local window views (which are
   affine too) without touching the traversal logic.  Inner loops use
   unsafe indexing; [Types.validate_args] proves every stencil stays inside
   the addressable padded box over the whole range before execution
   starts. *)

module Access = Am_core.Access
open Types

type compiled_arg =
  | C_dat of {
      view : view;
      dim : int;
      stencil : stencil;
      access : Access.t;
      stride : stride;
      gather : float array -> int -> int -> int -> unit; (* buf x y z *)
      scatter : float array -> int -> int -> int -> unit;
    }
  | C_gbl of { user_buf : float array; access : Access.t }
  | C_idx of int

type resolvers = { resolve_dat : dat -> view }

let global_resolvers = { resolve_dat = dat_view }

let ignore4 _ _ _ _ = ()

(* Per-stencil-point flat deltas from the iteration point's base index. *)
let build_offsets view stencil =
  Array.map
    (fun (dx, dy, dz) -> (dz * view.vplane) + (dy * view.vrow) + (dx * view.vcol))
    stencil

(* [planar]: the dataset's block has at most two dimensions, so z is always
   0.  Leaving z out of the single-component closures, which do almost all
   of CloverLeaf's staging, was worth 3-6% of a 2D step in paired runs. *)
let build_gather view ~planar ~dim ~stencil ~access ~stride =
  let { vdata; vbase; vplane; vrow; vcol } = view in
  let offsets = build_offsets view stencil in
  let np = Array.length offsets in
  match access with
  | Access.Inc ->
    if dim = 1 then fun buf _ _ _ -> Array.unsafe_set buf 0 0.0
    else fun buf _ _ _ -> Array.fill buf 0 dim 0.0
  | Access.Read | Access.Rw | Access.Write ->
    if is_unit_stride stride then begin
      if np = 1 && dim = 1 then
        let o = vbase + offsets.(0) in
        if planar then fun buf x y _ ->
          Array.unsafe_set buf 0 (Array.unsafe_get vdata (o + (y * vrow) + (x * vcol)))
        else fun buf x y z ->
          Array.unsafe_set buf 0
            (Array.unsafe_get vdata (o + (z * vplane) + (y * vrow) + (x * vcol)))
      else if dim = 1 && planar then
        fun buf x y _ ->
          let base = vbase + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            Array.unsafe_set buf p
              (Array.unsafe_get vdata (base + Array.unsafe_get offsets p))
          done
      else if dim = 1 then
        fun buf x y z ->
          let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            Array.unsafe_set buf p
              (Array.unsafe_get vdata (base + Array.unsafe_get offsets p))
          done
      else
        fun buf x y z ->
          let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
          for p = 0 to np - 1 do
            let src = base + Array.unsafe_get offsets p in
            for d = 0 to dim - 1 do
              Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
            done
          done
    end
    else
      fun buf x y z ->
        let bx, by, bz = apply_stride stride ~x ~y ~z in
        let base = vbase + (bz * vplane) + (by * vrow) + (bx * vcol) in
        for p = 0 to np - 1 do
          let src = base + Array.unsafe_get offsets p in
          for d = 0 to dim - 1 do
            Array.unsafe_set buf ((p * dim) + d) (Array.unsafe_get vdata (src + d))
          done
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

(* Scatters are center-only and unit-stride by validation. *)
let build_scatter view ~planar ~dim ~access =
  let { vdata; vbase; vplane; vrow; vcol } = view in
  match access with
  | Access.Read -> ignore4
  | Access.Write | Access.Rw ->
    if dim = 1 && planar then
      fun buf x y _ ->
        Array.unsafe_set vdata (vbase + (y * vrow) + (x * vcol)) (Array.unsafe_get buf 0)
    else if dim = 1 then
      fun buf x y z ->
        Array.unsafe_set vdata
          (vbase + (z * vplane) + (y * vrow) + (x * vcol))
          (Array.unsafe_get buf 0)
    else
      fun buf x y z ->
        let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          Array.unsafe_set vdata (base + d) (Array.unsafe_get buf d)
        done
  | Access.Inc ->
    if dim = 1 && planar then
      fun buf x y _ ->
        let j = vbase + (y * vrow) + (x * vcol) in
        Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf 0)
    else if dim = 1 then
      fun buf x y z ->
        let j = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf 0)
    else
      fun buf x y z ->
        let base = vbase + (z * vplane) + (y * vrow) + (x * vcol) in
        for d = 0 to dim - 1 do
          let j = base + d in
          Array.unsafe_set vdata j (Array.unsafe_get vdata j +. Array.unsafe_get buf d)
        done
  | Access.Min | Access.Max -> invalid_arg "ops: Min/Max access on a dataset"

let compile_dat view ~planar ~dim ~stencil ~access ~stride =
  C_dat
    {
      view; dim; stencil; access; stride;
      gather = build_gather view ~planar ~dim ~stencil ~access ~stride;
      scatter = build_scatter view ~planar ~dim ~access;
    }

let compile ?(resolvers = global_resolvers) args =
  let one = function
    | Arg_dat { dat; stencil; access; stride } ->
      compile_dat (resolvers.resolve_dat dat) ~planar:(dat.dat_block.ndim < 3) ~dim:dat.dim
        ~stencil ~access ~stride
    | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
    | Arg_idx n -> C_idx n
  in
  Array.of_list (List.map one args)

(* Freshness of a cached executor against the live arguments: dataset
   backing arrays are compared physically (window substitution or any data
   replacement invalidates). *)
let compiled_matches compiled args =
  Array.length compiled = List.length args
  && List.for_all2
       (fun c arg ->
         match (c, arg) with
         | C_dat cd, Arg_dat { dat; stencil; access; stride } ->
           cd.view.vdata == dat.data && cd.access = access && cd.stencil = stencil
           && cd.stride = stride
         | C_gbl cg, Arg_gbl { buf; access; _ } ->
           cg.user_buf == buf && cg.access = access
         | C_idx n, Arg_idx m -> n = m
         | (C_dat _ | C_gbl _ | C_idx _), _ -> false)
       (Array.to_list compiled) args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ | C_idx _ -> false) compiled

let make_buffers compiled =
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
    compiled

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

let merge_globals compiled buffers =
  Array.iteri
    (fun i c ->
      match c with
      | C_gbl { user_buf; access } -> reduce_into access user_buf buffers.(i)
      | C_dat _ | C_idx _ -> ())
    compiled

(* Pairwise tree reduction of per-worker accumulator sets into the user
   buffers (replaces the mutex-serialised per-chunk merge). *)
let merge_worker_globals compiled states =
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
          compiled
      done;
      n := half
    done;
    merge_globals compiled arr.(0);
    if traced then Am_obs.Obs.end_span ()

let run_point compiled buffers kernel x y z =
  for i = 0 to Array.length compiled - 1 do
    match Array.unsafe_get compiled i with
    | C_dat { gather; _ } -> gather (Array.unsafe_get buffers i) x y z
    | C_idx n ->
      let buf = Array.unsafe_get buffers i in
      buf.(0) <- Float.of_int x;
      if n > 1 then buf.(1) <- Float.of_int y;
      if n > 2 then buf.(2) <- Float.of_int z
    | C_gbl _ -> ()
  done;
  kernel buffers;
  for i = 0 to Array.length compiled - 1 do
    match Array.unsafe_get compiled i with
    | C_dat { scatter; _ } -> scatter (Array.unsafe_get buffers i) x y z
    | C_gbl _ | C_idx _ -> ()
  done

(* Box runner over caller-owned compiled arguments and staging buffers:
   the lazy-chain tiled executor keeps both across slabs, so global
   accumulations follow the eager traversal order, and merges globals once
   after the whole chain. *)
let run_range compiled buffers ~range ~kernel =
  for z = range.zlo to range.zhi - 1 do
    for y = range.ylo to range.yhi - 1 do
      for x = range.xlo to range.xhi - 1 do
        run_point compiled buffers kernel x y z
      done
    done
  done

(* ---- Sequential ----------------------------------------------------- *)

let run_seq ?resolvers ?compiled ~range ~args ~kernel () =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
  let buffers = make_buffers compiled in
  run_range compiled buffers ~range ~kernel;
  if has_globals compiled then merge_globals compiled buffers

(* ---- Shared memory ("OpenMP") --------------------------------------- *)

(* The outermost used [axis] (rows in 2D, planes in 3D) is split across the
   pool, with pooled worker-local buffers and a reduction-tree merge. *)
let run_shared ?resolvers ?compiled ~axis pool ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile ?resolvers args
  in
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
let run_tile compiled buffers kernel args tile =
  let args_arr = Array.of_list args in
  let staged =
    Array.mapi
      (fun i c ->
        match c with
        | C_dat { stride; _ } when not (is_unit_stride stride) ->
          (* Grid-transfer reads bypass the scratch tile (their footprint is
             not tile-shaped); they read global memory directly, as OPS's
             generated multigrid kernels do. *)
          c
        | C_dat { view; dim; stencil; access; stride; _ } ->
          let dat =
            match args_arr.(i) with
            | Arg_dat { dat; _ } -> dat
            | Arg_gbl _ | Arg_idx _ -> assert false
          in
          let reach a =
            Array.fold_left (fun m o -> max m (abs (offset_axis o a))) 0 stencil
          in
          let s =
            Array.init 3 (fun a -> (range_lo tile a - reach a, range_hi tile a + reach a))
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
            let clamp a =
              (max (fst s.(a)) (lo_bound dat a), min (snd s.(a)) (hi_bound dat a))
            in
            let (x0, x1), (y0, y1), (z0, z1) = (clamp 0, clamp 1, clamp 2) in
            iter_box { xlo = x0; xhi = x1; ylo = y0; yhi = y1; zlo = z0; zhi = z1 }
              (fun x y z ->
                for c = 0 to dim - 1 do
                  vset sview ~x ~y ~z ~c (vget view ~x ~y ~z ~c)
                done)
          end;
          compile_dat sview ~planar:(dat.dat_block.ndim < 3) ~dim ~stencil ~access ~stride
        | (C_gbl _ | C_idx _) as c -> c)
      compiled
  in
  run_range staged buffers ~range:tile ~kernel;
  (* Write back center regions of written datasets; increment-only scratch
     tiles start from zero, so they are added. *)
  Array.iteri
    (fun i c ->
      match (c, staged.(i)) with
      | C_dat { view; dim; access; _ }, C_dat { view = sview; _ }
        when Access.writes access ->
        iter_box tile (fun x y z ->
            for d = 0 to dim - 1 do
              let v = vget sview ~x ~y ~z ~c:d in
              if access = Access.Inc then
                vset view ~x ~y ~z ~c:d (vget view ~x ~y ~z ~c:d +. v)
              else vset view ~x ~y ~z ~c:d v
            done)
      | _ -> ())
    compiled

let run_cuda ?compiled config ~range ~args ~kernel =
  let compiled =
    match compiled with Some c -> c | None -> compile args
  in
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
