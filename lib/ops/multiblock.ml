(* Inter-block halos.

   OPS applications declare how datasets on *different* blocks abut: a halo
   couples a box face of one dataset to a face of another, with an
   orientation matrix (axis permutation and flips, entries -1/0/1)
   describing how indices map across the interface.  Transfers are
   triggered explicitly by the application (the paper: "inter-block halo
   exchanges are triggered explicitly by the user and serve as
   synchronization points").  Blocks of fewer than three dimensions keep
   the identity on their unused axes. *)

open Types

(* Destination point = dst_origin + M * (p - src_origin), with the
   transformed box shifted so its minimum corner lands on dst_origin.
   [xy] is the contribution of source dy to destination dx, and so on. *)
type orientation = {
  xx : int; xy : int; xz : int;
  yx : int; yy : int; yz : int;
  zx : int; zy : int; zz : int;
}

let identity_orientation =
  { xx = 1; xy = 0; xz = 0; yx = 0; yy = 1; yz = 0; zx = 0; zy = 0; zz = 1 }

type halo = {
  halo_name : string;
  src : dat;
  dst : dat;
  src_range : range; (* face/box on the source, ghost cells allowed *)
  dst_range : range;
  orientation : orientation;
}

let transform o (i, j, k) =
  ( (o.xx * i) + (o.xy * j) + (o.xz * k),
    (o.yx * i) + (o.yy * j) + (o.yz * k),
    (o.zx * i) + (o.zy * j) + (o.zz * k) )

let extent r = (r.xhi - r.xlo, r.yhi - r.ylo, r.zhi - r.zlo)

let decl_halo ~name ~src ~dst ~src_range ~dst_range ?(orientation = identity_orientation)
    () =
  let ndim = src.dat_block.ndim in
  if src.dim <> dst.dim then invalid_arg "decl_halo: component counts differ";
  let tw, th, td = transform orientation (extent src_range) in
  let dw, dh, dd = extent dst_range in
  let dims l =
    String.concat "x" (List.filteri (fun i _ -> i < ndim) (List.map string_of_int l))
  in
  if abs tw <> dw || abs th <> dh || abs td <> dd then
    invalid_arg
      (Printf.sprintf
         "decl_halo %s: transformed source box %s does not match destination box %s" name
         (dims [ abs tw; abs th; abs td ]) (dims [ dw; dh; dd ]));
  let check_bounds d r =
    for a = 0 to 2 do
      if range_lo r a < lo_bound d a || range_hi r a > hi_bound d a then
        invalid_arg
          (Printf.sprintf "decl_halo %s: range %s outside dat %s" name
             (range_to_string ~ndim r) d.dat_name)
    done
  in
  check_bounds src src_range;
  check_bounds dst dst_range;
  { halo_name = name; src; dst; src_range; dst_range; orientation }

(* Execute the copy: destination face values become source face values. *)
let transfer h =
  let sw, sh, sd = extent h.src_range in
  (* Minimum transformed coordinate over the box corners (the transform is
     linear, so extrema sit on corners); negative transformed coordinates
     are shifted into [0, extent). *)
  let corners =
    List.map (transform h.orientation)
      [ (0, 0, 0); (sw - 1, 0, 0); (0, sh - 1, 0); (0, 0, sd - 1); (sw - 1, sh - 1, 0);
        (sw - 1, 0, sd - 1); (0, sh - 1, sd - 1); (sw - 1, sh - 1, sd - 1) ]
  in
  let lowest f = List.fold_left (fun m c -> min m (f c)) 0 corners in
  let mx = lowest (fun (x, _, _) -> x) and my = lowest (fun (_, y, _) -> y) in
  let mz = lowest (fun (_, _, z) -> z) in
  for k = 0 to sd - 1 do
    for j = 0 to sh - 1 do
      for i = 0 to sw - 1 do
        let tx, ty, tz = transform h.orientation (i, j, k) in
        for c = 0 to h.src.dim - 1 do
          set h.dst ~x:(h.dst_range.xlo + tx - mx) ~y:(h.dst_range.ylo + ty - my)
            ~z:(h.dst_range.zlo + tz - mz) ~c
            (get h.src ~x:(h.src_range.xlo + i) ~y:(h.src_range.ylo + j)
               ~z:(h.src_range.zlo + k) ~c)
        done
      done
    done
  done

let transfer_all halos = List.iter transfer halos
