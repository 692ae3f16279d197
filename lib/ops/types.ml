(* Core value types of the multi-block structured-mesh active library (the
   paper's OPS), written once for every block dimension.

   A [block] is a logical index space of [ndim] dimensions (1, 2 or 3) with
   no size of its own; datasets ([dat]) live on a block, each with its *own*
   extents — this is how OPS accommodates cell-, face- and node-centred
   fields of different sizes on one block (e.g. CloverLeaf's staggered
   grid) as well as multigrid levels.

   As in OPS ([OPS_MAX_DIM = 3]) every block is stored as three axes: an
   axis the block does not use has extent 1 and no ghost cells, so a 2D
   dataset is a 3D one with a single z-plane and its padded array is
   exactly the 2D layout.  Every used axis carries a ghost ring of [halo]
   cells on both sides, so stencils evaluated near a range boundary stay in
   bounds; boundary conditions are written by running loops over ranges
   that extend into the ghost ring.  Computation is expressed as parallel
   loops over boxes, with per-argument stencils and access descriptors. *)

module Access = Am_core.Access

type block = { block_id : int; block_name : string; ndim : int }

type dat = {
  dat_id : int;
  dat_name : string;
  dat_block : block;
  xsize : int; (* interior extents; 1 on unused axes *)
  ysize : int;
  zsize : int;
  halo : int; (* ghost ring width on every side of a used axis *)
  dim : int; (* components per point *)
  mutable data : float array; (* x fastest, then y, then z; padded *)
}

(* A stencil is a flat array of relative (dx, dy, dz) offsets; (0, 0, 0)
   is the iteration point.  Offsets along unused axes are 0. *)
type stencil = (int * int * int) array

let stencil_point : stencil = [| (0, 0, 0) |]

let stencil_extent (s : stencil) =
  Array.fold_left
    (fun acc (dx, dy, dz) -> max acc (max (abs dx) (max (abs dy) (abs dz))))
    0 s

let is_center_only (s : stencil) = s = stencil_point

(* Component of a stencil offset along [axis]. *)
let offset_axis (dx, dy, dz) axis = match axis with 0 -> dx | 1 -> dy | _ -> dz

(* Grid-transfer stride: the accessed point for iteration (x, y, z) and
   offset (dx, dy, dz) is (floor(x*xn/xd) + dx, ...).  Unit stride is
   ordinary stencil access; xn = f (restriction) reads a finer grid from a
   coarse loop, xd = f (prolongation) reads a coarser grid from a fine
   loop — the "multi-grid situations" OPS's per-dat sizes exist for. *)
type stride = { xn : int; xd : int; yn : int; yd : int; zn : int; zd : int }

let unit_stride = { xn = 1; xd = 1; yn = 1; yd = 1; zn = 1; zd = 1 }
let is_unit_stride s = s = unit_stride

(* Floor division (OCaml's / truncates towards zero). *)
let floordiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let apply_stride stride ~x ~y ~z =
  ( floordiv (x * stride.xn) stride.xd,
    floordiv (y * stride.yn) stride.yd,
    floordiv (z * stride.zn) stride.zd )

type arg =
  | Arg_dat of { dat : dat; stencil : stencil; access : Access.t; stride : stride }
  | Arg_gbl of { name : string; buf : float array; access : Access.t }
  | Arg_idx of int (* kernel receives the first [n] iteration indices as floats *)

(* Half-open iteration box; unused axes span [0, 1). *)
type range = { xlo : int; xhi : int; ylo : int; yhi : int; zlo : int; zhi : int }

let range_lo r = function 0 -> r.xlo | 1 -> r.ylo | _ -> r.zlo
let range_hi r = function 0 -> r.xhi | 1 -> r.yhi | _ -> r.zhi

(* [r] with its [axis] interval replaced by [lo, hi). *)
let with_axis r axis lo hi =
  match axis with
  | 0 -> { r with xlo = lo; xhi = hi }
  | 1 -> { r with ylo = lo; yhi = hi }
  | _ -> { r with zlo = lo; zhi = hi }

let range_size r =
  max 0 (r.xhi - r.xlo) * max 0 (r.yhi - r.ylo) * max 0 (r.zhi - r.zlo)

let range_to_string ~ndim r =
  String.concat "x"
    (List.init ndim (fun a -> Printf.sprintf "[%d,%d)" (range_lo r a) (range_hi r a)))

(* "(x,y)"-style rendering of the first [ndim] coordinates. *)
let point_to_string ~ndim ~x ~y ~z =
  let coords = List.filteri (fun i _ -> i < ndim) [ x; y; z ] in
  "(" ^ String.concat "," (List.map string_of_int coords) ^ ")"

type env = {
  mutable blocks : block list;
  mutable dats : dat list;
  mutable next_id : int;
}

let make_env () = { blocks = []; dats = []; next_id = 0 }

let fresh_id env =
  let id = env.next_id in
  env.next_id <- id + 1;
  id

let decl_block env ~name ~ndim =
  let b = { block_id = fresh_id env; block_name = name; ndim } in
  env.blocks <- b :: env.blocks;
  b

(* [decl_dat] takes the extents of the block's used axes; the others are 1. *)
let decl_dat env ~name ~block ~xsize ?(ysize = 1) ?(zsize = 1) ?(halo = 2) ?(dim = 1) () =
  if xsize <= 0 || ysize <= 0 || zsize <= 0 then
    invalid_arg "decl_dat: extents must be positive";
  if halo < 0 then invalid_arg "decl_dat: negative halo";
  if dim <= 0 then invalid_arg "decl_dat: dim must be positive";
  let pad n axis = if axis < block.ndim then n + (2 * halo) else n in
  let total = pad xsize 0 * pad ysize 1 * pad zsize 2 * dim in
  let d =
    { dat_id = fresh_id env; dat_name = name; dat_block = block; xsize; ysize; zsize;
      halo; dim; data = Array.make total 0.0 }
  in
  env.dats <- d :: env.dats;
  d

let blocks env = List.rev env.blocks
let dats env = List.rev env.dats

let size dat = function 0 -> dat.xsize | 1 -> dat.ysize | _ -> dat.zsize

(* Ghost depth along [axis]: the halo on used axes, none on the others. *)
let ghost dat axis = if axis < dat.dat_block.ndim then dat.halo else 0

(* Addressable logical coordinates along [axis] (ghosts included):
   [lo_bound, hi_bound). *)
let lo_bound dat axis = -ghost dat axis
let hi_bound dat axis = size dat axis + ghost dat axis
let padded dat axis = size dat axis + (2 * ghost dat axis)

(* Flat index of component [c] at logical point (x, y, z); (0,0,0) is the
   first interior point, negatives reach into the ghost ring. *)
let index dat ~x ~y ~z ~c =
  let g = dat.halo and ndim = dat.dat_block.ndim in
  let gy = if ndim >= 2 then g else 0 and gz = if ndim >= 3 then g else 0 in
  ((((((z + gz) * (dat.ysize + (2 * gy))) + (y + gy)) * (dat.xsize + (2 * g))) + (x + g))
   * dat.dim)
  + c

let get dat ~x ~y ~z ~c = dat.data.(index dat ~x ~y ~z ~c)
let set dat ~x ~y ~z ~c v = dat.data.(index dat ~x ~y ~z ~c) <- v

let interior dat =
  { xlo = 0; xhi = dat.xsize; ylo = 0; yhi = dat.ysize; zlo = 0; zhi = dat.zsize }

(* The whole addressable box, ghosts included. *)
let addressable dat =
  { xlo = lo_bound dat 0; xhi = hi_bound dat 0; ylo = lo_bound dat 1;
    yhi = hi_bound dat 1; zlo = lo_bound dat 2; zhi = hi_bound dat 2 }

let iter_box r f =
  for z = r.zlo to r.zhi - 1 do
    for y = r.ylo to r.yhi - 1 do
      for x = r.xlo to r.xhi - 1 do
        f x y z
      done
    done
  done

let fill dat v = Array.fill dat.data 0 (Array.length dat.data) v

(* Affine addressing window: component [c] of logical point (x, y, z)
   lives at [vbase + z*vplane + y*vrow + x*vcol + c] in [vdata].  The
   executors address datasets, rank windows and scratch tiles through
   views. *)
type view = {
  vdata : float array;
  vbase : int;
  vplane : int;
  vrow : int;
  vcol : int;
}

let dat_view dat =
  {
    vdata = dat.data;
    vbase = index dat ~x:0 ~y:0 ~z:0 ~c:0;
    vplane = padded dat 0 * padded dat 1 * dat.dim;
    vrow = padded dat 0 * dat.dim;
    vcol = dat.dim;
  }

(* A dense x-fastest array [data] holding exactly [box]. *)
let box_view data ~dim box =
  let w = box.xhi - box.xlo and h = box.yhi - box.ylo in
  {
    vdata = data;
    vbase = -(((((box.zlo * h) + box.ylo) * w) + box.xlo) * dim);
    vplane = w * h * dim;
    vrow = w * dim;
    vcol = dim;
  }

(* Bounds-checked accessors for the cold paths. *)
let vindex v ~x ~y ~z ~c = v.vbase + (z * v.vplane) + (y * v.vrow) + (x * v.vcol) + c
let vget v ~x ~y ~z ~c = v.vdata.(vindex v ~x ~y ~z ~c)
let vset v ~x ~y ~z ~c value = v.vdata.(vindex v ~x ~y ~z ~c) <- value

(* Copy [box] from [src] to [dst] (views of [dim]-component data), one
   contiguous x row at a time. *)
let copy_box ~src ~dst ~dim box =
  let len = (box.xhi - box.xlo) * dim in
  if len > 0 then
    for z = box.zlo to box.zhi - 1 do
      for y = box.ylo to box.yhi - 1 do
        Array.blit src.vdata (vindex src ~x:box.xlo ~y ~z ~c:0) dst.vdata
          (vindex dst ~x:box.xlo ~y ~z ~c:0) len
      done
    done

(* Copy of the interior values in x-fastest order, used by validation and
   I/O. *)
let fetch_interior dat =
  let box = interior dat in
  let out = Array.make (range_size box * dat.dim) 0.0 in
  copy_box ~src:(dat_view dat) ~dst:(box_view out ~dim:dat.dim box) ~dim:dat.dim box;
  out

let facade_name ndim = if ndim = 2 then "ops" else Printf.sprintf "ops%d" ndim

(* Validate an argument list against an iteration box: stencils must stay
   inside the addressable (interior + ghost) box over the whole range, all
   datasets must share the block, and written arguments must use the
   center-only stencil (the OPS restriction that makes structured loops
   race-free by construction).  A dataset written in a loop must be accessed
   center-only by *every* argument of that loop: reading a neighbour that
   the same loop writes is a loop-carried dependence whose result would
   depend on traversal order.  Acceptance is what licenses the executors'
   unchecked indexing. *)
let validate_args ~block ~range args =
  let ndim = block.ndim in
  let written = Hashtbl.create 4 in
  List.iter
    (function
      | Arg_dat { dat; access; _ } when Access.writes access ->
        Hashtbl.replace written dat.dat_id ()
      | Arg_dat _ | Arg_gbl _ | Arg_idx _ -> ())
    args;
  List.iteri
    (fun i arg ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            invalid_arg (Printf.sprintf "%s par_loop arg %d: %s" (facade_name ndim) i msg))
          fmt
      in
      match arg with
      | Arg_idx n ->
        if n <> ndim then fail "index argument of %d coordinates in a %dD loop" n ndim
      | Arg_gbl { access; name; buf } ->
        if not (Access.valid_on_gbl access) then
          fail "global %s: access %s not valid on globals" name (Access.to_string access);
        if Array.length buf = 0 then fail "global %s: empty buffer" name
      | Arg_dat { dat; stencil; access; stride } ->
        if not (Access.valid_on_dat access) then
          fail "dat %s: access %s not valid on datasets" dat.dat_name
            (Access.to_string access);
        if dat.dat_block.block_id <> block.block_id then
          fail "dat %s lives on block %s, loop runs on %s" dat.dat_name
            dat.dat_block.block_name block.block_name;
        if Array.length stencil = 0 then fail "dat %s: empty stencil" dat.dat_name;
        if (not (is_unit_stride stride)) && Access.writes access then
          fail "dat %s: strided (grid-transfer) access is read-only" dat.dat_name;
        if stride.xn <= 0 || stride.xd <= 0 || stride.yn <= 0 || stride.yd <= 0
           || stride.zn <= 0 || stride.zd <= 0
        then fail "dat %s: stride components must be positive" dat.dat_name;
        if Access.writes access && not (is_center_only stencil) then
          fail "dat %s: %s access requires the center-only stencil" dat.dat_name
            (Access.to_string access);
        if Hashtbl.mem written dat.dat_id
           && not (is_center_only stencil && is_unit_stride stride)
        then
          fail
            "dat %s is written in this loop but also read through an offset or \
             strided stencil (loop-carried dependence)"
            dat.dat_name;
        begin
          let b0 = apply_stride stride ~x:range.xlo ~y:range.ylo ~z:range.zlo in
          let b1 =
            apply_stride stride ~x:(range.xhi - 1) ~y:(range.yhi - 1) ~z:(range.zhi - 1)
          in
          Array.iter
            (fun off ->
              for a = 0 to 2 do
                let d = offset_axis off a in
                if
                  offset_axis b0 a + d < lo_bound dat a
                  || offset_axis b1 a + d >= hi_bound dat a
                then
                  let dx, dy, dz = off in
                  fail
                    "dat %s: stencil offset %s leaves the %d-deep ghost ring over range %s"
                    dat.dat_name (point_to_string ~ndim ~x:dx ~y:dy ~z:dz) dat.halo
                    (range_to_string ~ndim range)
              done)
            stencil
        end)
    args

(* Backend-independent loop descriptor for tracing/profiling. *)
let describe ~name ~block ~range ~info args : Am_core.Descr.loop =
  let arg_descr = function
    | Arg_gbl { name; buf; access } ->
      { Am_core.Descr.dat_name = name; dat_id = -1; dim = Array.length buf; access;
        kind = Am_core.Descr.Global }
    | Arg_idx n ->
      { Am_core.Descr.dat_name = "idx"; dat_id = -1; dim = n; access = Access.Read;
        kind = Am_core.Descr.Global }
    | Arg_dat { dat; stencil; access; stride = _ } ->
      {
        Am_core.Descr.dat_name = dat.dat_name;
        dat_id = dat.dat_id;
        dim = dat.dim;
        access;
        kind =
          (if is_center_only stencil then Am_core.Descr.Direct
           else
             Am_core.Descr.Stencil
               { points = Array.length stencil; extent = stencil_extent stencil });
      }
  in
  { Am_core.Descr.loop_name = name; set_name = block.block_name;
    set_size = range_size range; args = List.map arg_descr args; info }
