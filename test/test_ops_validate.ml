(* The proof obligation behind the OPS executors' unchecked indexing.

   The gather/scatter closures in [Exec] use [Array.unsafe_get/set] on the
   grounds that [Types.validate_args] accepted the loop.  This property
   generates random 1D, 2D and 3D datasets (extents, ghost depths,
   components), ranges reaching into and past the ghost ring, stencils and
   restrict/prolong strides, and checks that whenever validation accepts,
   every flat index the executor computes for every point, stencil offset
   and component lies inside the dataset's array.  It also checks the
   converse at the edge: a stencil offset one cell past the ghost depth on
   any face is rejected.  Honours AM_SEED. *)

module Types = Am_ops.Types
module Exec = Am_ops.Exec
module Access = Am_core.Access

type case = {
  ndim : int;
  sizes : int array; (* 1 on unused axes *)
  halo : int;
  dim : int;
  lo : int array; (* range per axis; [0, 1) on unused axes *)
  hi : int array;
  stencil : Types.stencil;
  stride : Types.stride;
  access : Access.t;
  face : int * int; (* axis and side (-1 or 1) of the one-past-the-ghosts offset *)
}

let gen_case =
  let open QCheck.Gen in
  let* ndim = int_range 1 3 in
  let* halo = int_range 0 3 in
  let* dim = int_range 1 2 in
  let used a = a < ndim in
  let* sizes = array_size (return 3) (int_range 1 6) in
  let sizes = Array.mapi (fun a n -> if used a then n else 1) sizes in
  (* Half the cases keep the range and stencil within the ghost ring, so
     validation accepts often; the others range past it on either side. *)
  let* wild = bool in
  let reach = if wild then halo + 1 else halo in
  let* lo = array_size (return 3) (int_range (-reach) 6) in
  let* len = array_size (return 3) (int_range 0 8) in
  let lo = Array.mapi (fun a l -> if used a then min l sizes.(a) else 0) lo in
  let hi =
    Array.mapi
      (fun a l -> if used a then min (l + len.(a)) (sizes.(a) + reach) else 1)
      lo
  in
  let offset = int_range (-reach) reach in
  let* points = list_size (int_range 0 3) (triple offset offset offset) in
  let stencil =
    Array.of_list
      ((0, 0, 0)
      :: List.map
           (fun (dx, dy, dz) ->
             ( (if used 0 then dx else 0),
               (if used 1 then dy else 0),
               if used 2 then dz else 0 ))
           points)
  in
  let* transfer = int_range 0 2 and* factor = int_range 2 3 in
  let f a = if used a then factor else 1 in
  let stride =
    match transfer with
    | 0 -> Types.unit_stride
    | 1 -> { Types.xn = f 0; xd = 1; yn = f 1; yd = 1; zn = f 2; zd = 1 }
    | _ -> { Types.xn = 1; xd = f 0; yn = 1; yd = f 1; zn = 1; zd = f 2 }
  in
  let* write = bool in
  let access, stencil, stride =
    if write then (Access.Write, Types.stencil_point, Types.unit_stride)
    else (Access.Read, stencil, stride)
  in
  let* axis = int_range 0 (ndim - 1) and* side = oneofl [ -1; 1 ] in
  return { ndim; sizes; halo; dim; lo; hi; stencil; stride; access; face = (axis, side) }

let print_case c =
  Printf.sprintf "ndim=%d sizes=%s halo=%d dim=%d range=%s stencil=[%s] stride=%s %s"
    c.ndim
    (String.concat "x" (Array.to_list (Array.map string_of_int c.sizes)))
    c.halo c.dim
    (String.concat "x"
       (List.init 3 (fun a -> Printf.sprintf "[%d,%d)" c.lo.(a) c.hi.(a))))
    (String.concat ";"
       (Array.to_list
          (Array.map (fun (x, y, z) -> Printf.sprintf "(%d,%d,%d)" x y z) c.stencil)))
    (if Types.is_unit_stride c.stride then "unit"
     else Printf.sprintf "%d/%d" c.stride.Types.xn c.stride.Types.xd)
    (Access.to_string c.access)

let setup c =
  let env = Types.make_env () in
  let block = Types.decl_block env ~name:"b" ~ndim:c.ndim in
  let dat =
    Types.decl_dat env ~name:"u" ~block ~xsize:c.sizes.(0) ~ysize:c.sizes.(1)
      ~zsize:c.sizes.(2) ~halo:c.halo ~dim:c.dim ()
  in
  (block, dat)

let accepts ~block ~range arg =
  match Types.validate_args ~block ~range [ arg ] with
  | () -> true
  | exception Invalid_argument _ -> false

(* Every flat index the executor's gather (and, for the centre point, its
   scatter) computes over the range, exactly as [Exec] computes it. *)
let indices_in_bounds (dat : Types.dat) c range =
  let view = Types.dat_view dat in
  let offsets = Exec.build_offsets view c.stencil in
  let n = Array.length dat.Types.data in
  let ok = ref true in
  Types.iter_box range (fun x y z ->
      let bx, by, bz = Types.apply_stride c.stride ~x ~y ~z in
      let base =
        view.Types.vbase + (bz * view.Types.vplane) + (by * view.Types.vrow)
        + (bx * view.Types.vcol)
      in
      Array.iter
        (fun o ->
          for d = 0 to c.dim - 1 do
            let i = base + o + d in
            if i < 0 || i >= n then ok := false
          done)
        offsets);
  !ok

let prop c =
  let block, dat = setup c in
  let range =
    { Types.xlo = c.lo.(0); xhi = c.hi.(0); ylo = c.lo.(1); yhi = c.hi.(1);
      zlo = c.lo.(2); zhi = c.hi.(2) }
  in
  let arg =
    Types.Arg_dat { dat; stencil = c.stencil; access = c.access; stride = c.stride }
  in
  let sound = (not (accepts ~block ~range arg)) || indices_in_bounds dat c range in
  (* One cell past the ghost depth on face [c.face], from the interior. *)
  let axis, side = c.face in
  let past = side * (c.halo + 1) in
  let on a = if axis = a then past else 0 in
  let escaping =
    Types.Arg_dat
      {
        dat;
        stencil = [| (0, 0, 0); (on 0, on 1, on 2) |];
        access = Access.Read;
        stride = Types.unit_stride;
      }
  in
  sound && not (accepts ~block ~range:(Types.interior dat) escaping)

let test =
  QCheck.Test.make ~name:"validate_args accepts only in-bounds executor indices" ~count:600
    (QCheck.make ~print:print_case gen_case) prop

let () =
  Alcotest.run "ops_validate"
    [
      ( "validate_args",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| Qcheck_util.base_seed |])
            test;
        ] );
    ]
