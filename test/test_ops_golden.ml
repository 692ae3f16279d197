(* Bitwise golden state of the OPS proxy apps.

   Each run below hashes the [Int64.bits_of_float] of every dataset's
   interior (MD5, datasets in declaration order) and compares the digest
   with the one recorded from the reference implementation, so a change of
   a single bit anywhere in the final state fails.  Partitioned runs also
   record the communicator's message and byte counts, which must not grow.

   The runs cover every facade and every decomposition shape: CloverLeaf
   2D (donor-cell and van Leer), CloverLeaf 3D, TeaLeaf CG (with its
   iteration count), a 1D Sod shock tube, a 3D multi-block halo with an
   axis swap, and one partitioned run per shape in Blocking and Overlap
   mode.  On a mismatch the failure message prints the new digest. *)

module Ops = Am_ops.Ops
module Ops1 = Am_ops.Ops1
module Ops3 = Am_ops.Ops3
module Access = Am_core.Access
module Clover = Am_cloverleaf.App
module Clover3 = Am_cloverleaf3.App
module Tea = Am_tealeaf.App
module Comm = Am_simmpi.Comm

let digest_arrays arrays =
  let b = Buffer.create 4096 in
  List.iter
    (fun a ->
      Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a;
      Buffer.add_char b '|')
    arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

type outcome = { digest : string; traffic : Comm.stats option }

let ops_state ctx = digest_arrays (List.map (Ops.fetch_interior ctx) (Ops.dats ctx))
let ops1_state ctx = digest_arrays (List.map (Ops1.fetch_interior ctx) (Ops1.dats ctx))
let ops3_state ctx = digest_arrays (List.map (Ops3.fetch_interior ctx) (Ops3.dats ctx))

let comm_mode_2d = function `Blocking -> Ops.Blocking | `Overlap -> Ops.Overlap
let comm_mode_3d = function `Blocking -> Ops3.Blocking | `Overlap -> Ops3.Overlap

(* ---- runs ---------------------------------------------------------------- *)

let clover ?partition advection =
  let t = Clover.create ~advection ~nx:24 ~ny:20 () in
  (match partition with
  | None -> ()
  | Some (shape, mode) ->
    (match shape with
    | `Rows -> Ops.partition t.Clover.ctx ~n_ranks:3 ~ref_ysize:20
    | `Grid -> Ops.partition_grid t.Clover.ctx ~px:2 ~py:2 ~ref_xsize:24 ~ref_ysize:20);
    Ops.set_comm_mode t.Clover.ctx (comm_mode_2d mode));
  ignore (Clover.run t ~steps:4);
  { digest = ops_state t.Clover.ctx; traffic = Ops.comm_stats t.Clover.ctx }

let clover3 ?partition () =
  let t = Clover3.create ~n:8 () in
  (match partition with
  | None -> ()
  | Some (shape, mode) ->
    (match shape with
    | `Slabs -> Ops3.partition t.Clover3.ctx ~n_ranks:3 ~ref_zsize:8
    | `Pencil ->
      Ops3.partition_pencil t.Clover3.ctx ~py:2 ~pz:2 ~ref_ysize:8 ~ref_zsize:8);
    Ops3.set_comm_mode t.Clover3.ctx (comm_mode_3d mode));
  ignore (Clover3.run t ~steps:3);
  { digest = ops3_state t.Clover3.ctx; traffic = Ops3.comm_stats t.Clover3.ctx }

let tealeaf () =
  let t = Tea.create ~n:10 () in
  Tea.run t ~steps:2;
  let d = ops3_state t.Tea.ctx in
  { digest = Printf.sprintf "%s/%d" d t.Tea.cg_iterations; traffic = None }

(* Sod shock tube (Lax-Friedrichs, reflective ends) on the 1D facade. *)
let shock_tube ?partition () =
  let nx = 60 and gamma = 1.4 in
  let ctx = Ops1.create () in
  let tube = Ops1.decl_block ctx ~name:"tube" in
  let q = Ops1.decl_dat ctx ~name:"q" ~block:tube ~xsize:nx ~dim:3 () in
  let qnew = Ops1.decl_dat ctx ~name:"qnew" ~block:tube ~xsize:nx ~dim:3 () in
  (match partition with
  | None -> ()
  | Some mode ->
    Ops1.partition ctx ~n_ranks:3 ~ref_xsize:nx;
    Ops1.set_comm_mode ctx
      (match mode with `Blocking -> Ops1.Blocking | `Overlap -> Ops1.Overlap));
  Ops1.init ctx q (fun x c ->
      let left = 2 * x < nx in
      match c with
      | 0 -> if left then 1.0 else 0.125
      | 1 -> 0.0
      | _ -> (if left then 1.0 else 0.1) /. (gamma -. 1.0));
  let dx = 1.0 /. Float.of_int nx in
  let lam = 0.4 *. dx /. (2.0 *. dx) in
  let flux q p =
    let rho = q.(p * 3) and m = q.((p * 3) + 1) and e = q.((p * 3) + 2) in
    let u = m /. rho in
    let pr = (gamma -. 1.0) *. (e -. (0.5 *. m *. u)) in
    [| m; (m *. u) +. pr; u *. (e +. pr) |]
  in
  let mass = [| 0.0 |] in
  for _ = 1 to 12 do
    Ops1.mirror_halo ctx ~depth:1 q;
    Ops1.par_loop ctx ~name:"lax_step" tube (Ops1.interior q)
      [
        Ops1.arg_dat q Ops1.stencil_3pt Access.Read;
        Ops1.arg_dat qnew Ops1.stencil_point Access.Write;
      ]
      (fun a ->
        let q = a.(0) and fw = flux a.(0) 1 and fe = flux a.(0) 2 in
        for c = 0 to 2 do
          a.(1).(c) <- (0.5 *. (q.(3 + c) +. q.(6 + c))) -. (lam *. (fe.(c) -. fw.(c)))
        done);
    mass.(0) <- 0.0;
    Ops1.par_loop ctx ~name:"copy_back" tube (Ops1.interior q)
      [
        Ops1.arg_dat qnew Ops1.stencil_point Access.Read;
        Ops1.arg_dat q Ops1.stencil_point Access.Write;
        Ops1.arg_gbl ~name:"mass" mass Access.Inc;
      ]
      (fun a ->
        Array.blit a.(0) 0 a.(1) 0 3;
        a.(2).(0) <- a.(2).(0) +. a.(0).(0))
  done;
  let d = ops1_state ctx in
  { digest = Printf.sprintf "%s/%h" d mass.(0); traffic = Ops1.comm_stats ctx }

(* The 3D multi-block halo with a (y, z) axis swap across the interface. *)
let swap_yz () =
  let ctx = Ops3.create () in
  let blk = Ops3.decl_block ctx ~name:"blk" in
  let a = Ops3.decl_dat ctx ~name:"a" ~block:blk ~xsize:4 ~ysize:3 ~zsize:5 ~halo:1 () in
  let b = Ops3.decl_dat ctx ~name:"b" ~block:blk ~xsize:4 ~ysize:5 ~zsize:3 ~halo:1 () in
  Ops3.init ctx a (fun x y z _ -> Float.of_int ((100 * x) + (10 * y) + z));
  let swap : Ops3.orientation =
    { Ops3.identity_orientation with yy = 0; yz = 1; zy = 1; zz = 0 }
  in
  let h =
    Ops3.decl_halo ctx ~name:"a->b" ~src:a ~dst:b
      ~src_range:{ Ops3.xlo = 3; xhi = 4; ylo = 0; yhi = 3; zlo = 0; zhi = 5 }
      ~dst_range:{ Ops3.xlo = -1; xhi = 0; ylo = 0; yhi = 5; zlo = 0; zhi = 3 }
      ~orientation:swap ()
  in
  Ops3.halo_transfer ctx [ h ];
  let ghost = ref [] in
  for z = 0 to 2 do
    for y = 0 to 4 do
      ghost := Ops3.get b ~x:(-1) ~y ~z ~c:0 :: !ghost
    done
  done;
  { digest = digest_arrays [ Array.of_list (List.rev !ghost) ]; traffic = None }

(* ---- golden table -------------------------------------------------------- *)

(* name, run, state digest, (messages, bytes) of partitioned runs *)
let golden =
  [
    ( "clover2d donor-cell",
      (fun () -> clover Clover.First_order),
      "9cdd7f81ef82589e71ebdb40d59f9e7d",
      None );
    ( "clover2d van-leer",
      (fun () -> clover Clover.Van_leer),
      "5b89c18c163e04c1a21bd2989087b087",
      None );
    ( "clover3d",
      (fun () -> clover3 ()),
      "435f82e85636dc70033b3efaac8ba391",
      None );
    ( "tealeaf cg",
      tealeaf,
      "41613ed9209946326b78b00b57b13775/27",
      None );
    ( "shock tube 1d",
      (fun () -> shock_tube ()),
      "01a91d90c9ddde093c0fcdacad57fe59/0x1.0dffffffffffep+5",
      None );
    ( "multiblock swap_yz",
      swap_yz,
      "7e3fbfa0ba6d527ee2cd267822f5fbe0",
      None );
    ( "rows(3) blocking",
      (fun () -> clover ~partition:(`Rows, `Blocking) Clover.Van_leer),
      "5b89c18c163e04c1a21bd2989087b087",
      Some (444, 115712) );
    ( "rows(3) overlap",
      (fun () -> clover ~partition:(`Rows, `Overlap) Clover.Van_leer),
      "5b89c18c163e04c1a21bd2989087b087",
      Some (444, 115712) );
    ( "grid(2x2) blocking",
      (fun () -> clover ~partition:(`Grid, `Blocking) Clover.Van_leer),
      "5b89c18c163e04c1a21bd2989087b087",
      Some (888, 245376) );
    ( "grid(2x2) overlap",
      (fun () -> clover ~partition:(`Grid, `Overlap) Clover.Van_leer),
      "5b89c18c163e04c1a21bd2989087b087",
      Some (888, 245376) );
    ( "chunks(3) blocking",
      (fun () -> shock_tube ~partition:`Blocking ()),
      "01a91d90c9ddde093c0fcdacad57fe59/0x1.0dfffffffffffp+5",
      Some (48, 2304) );
    ( "chunks(3) overlap",
      (fun () -> shock_tube ~partition:`Overlap ()),
      "01a91d90c9ddde093c0fcdacad57fe59/0x1.0dfffffffffffp+5",
      Some (48, 2304) );
    ( "slabs(3) blocking",
      (fun () -> clover3 ~partition:(`Slabs, `Blocking) ()),
      "435f82e85636dc70033b3efaac8ba391",
      Some (512, 1308672) );
    ( "slabs(3) overlap",
      (fun () -> clover3 ~partition:(`Slabs, `Overlap) ()),
      "435f82e85636dc70033b3efaac8ba391",
      Some (512, 1308672) );
    ( "pencil(2x2) blocking",
      (fun () -> clover3 ~partition:(`Pencil, `Blocking) ()),
      "435f82e85636dc70033b3efaac8ba391",
      Some (1024, 2136576) );
    ( "pencil(2x2) overlap",
      (fun () -> clover3 ~partition:(`Pencil, `Overlap) ()),
      "435f82e85636dc70033b3efaac8ba391",
      Some (1024, 2136576) );
  ]

let check (name, run, digest, traffic) () =
  let o = run () in
  if o.digest <> digest then
    Alcotest.failf "%s: state digest %s, expected %s" name o.digest digest;
  match (traffic, o.traffic) with
  | None, None -> ()
  | Some (messages, bytes), Some s ->
    if s.Comm.messages > messages || s.Comm.bytes > bytes then
      Alcotest.failf "%s: %d messages / %d bytes, recorded %d / %d" name
        s.Comm.messages s.Comm.bytes messages bytes
  | None, Some s ->
    Alcotest.failf "%s: unrecorded traffic %d messages / %d bytes" name
      s.Comm.messages s.Comm.bytes
  | Some _, None -> Alcotest.failf "%s: expected a partitioned run" name

let () =
  Alcotest.run "ops_golden"
    [
      ( "bitwise",
        List.map
          (fun ((name, _, _, _) as g) -> Alcotest.test_case name `Quick (check g))
          golden );
    ]
