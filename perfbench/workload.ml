(* The benchmark's workloads: one proxy application, mesh and execution
   configuration each, with the hand-coded baseline of the same mesh run
   in lockstep.

   Meshes and decompositions are fixed; the seed only perturbs the initial
   state (relative, at most 1e-3), and the perturbed values are written
   identically into the framework datasets (through [Op2.update] and
   [Ops.init]) and into the hand-coded arrays. *)

module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Access = Am_core.Access
module Umesh = Am_mesh.Umesh
module AApp = Am_airfoil.App
module AHand = Am_airfoil.Hand
module AK = Am_airfoil.Kernels
module CApp = Am_cloverleaf.App
module CHand = Am_cloverleaf.Hand
module CK = Am_cloverleaf.Kernels

let now = Unix.gettimeofday

(* Run one set-up phase inside a benchmark span and time it. *)
let phase name f =
  let t0 = now () in
  let r = Am_obs.Obs.span ~cat:Am_obs.Tracer.Plan ("bench.setup." ^ name) f in
  (r, now () -. t0)

type phases = { create_s : float; partition_s : float; first_step_s : float }

(* One set-up framework instance with its lockstep hand-coded twin. *)
type inst = {
  fw_step : unit -> unit;
  hand_step : unit -> unit;
  discrepancy : unit -> float;
      (** max relative difference of the framework state from the hand
          state ([Am_util.Fa.rel_discrepancy]); infinity if non-finite *)
  corrupt : by:float -> unit;
      (** scale one framework value by [1 + by] through the public write
          path ([by = 0] rewrites the state unchanged) *)
  profile : Am_core.Profile.t;
  ladder : unit -> Ladder.loop list;
}

type prepared = {
  setup : unit -> inst * phases;
  partition_probe : unit -> float * int;
      (** k-way partition time of the primary set and its halo volume;
          (0, 0) when the workload is not k-way partitioned *)
}

type t = {
  name : string;
  app : [ `Airfoil | `Cloverleaf ];
  cells : int;
  dat_bytes : int;  (** framework dataset bytes (the hand copy doubles it) *)
  describe : string;
  prepare : seed:int -> prepared;
}

let discrepancy pairs =
  List.fold_left
    (fun acc (fw, hand) ->
      if not (Am_util.Fa.is_finite fw) then infinity
      else Float.max acc (Am_util.Fa.rel_discrepancy fw hand))
    0.0 pairs

(* Relative perturbation factors in [1 - 1e-3, 1 + 1e-3]. *)
let factors ~seed n =
  let rng = Am_util.Prng.create seed in
  Array.init n (fun _ -> 1.0 +. Am_util.Prng.float_range rng (-1e-3) 1e-3)

(* ---- Airfoil (OP2) ---------------------------------------------------- *)

type airfoil_mode =
  | A_seq
  | A_hybrid of { ranks : int; pool : Am_taskpool.Pool.t Lazy.t }

let airfoil_ladder (app : AApp.t) (hand : AHand.t) =
  let ctx = app.AApp.ctx in
  let loop name ?hand_fn set args kernel =
    let handle = Op2.make_handle () in
    {
      Ladder.name;
      covers = [ name ];
      run = (fun k -> Op2.par_loop ctx ~name:("ladder_" ^ name) ~handle set args k);
      kernel;
      hand = hand_fn;
    }
  in
  let rms = [| 0.0 |] in
  let ind d m i acc = Op2.arg_dat_indirect d m i acc in
  let open AApp in
  let save_soln =
    loop "save_soln"
      ~hand_fn:(fun () -> AHand.save_soln hand)
      app.cells
      [ Op2.arg_dat app.q Access.Read; Op2.arg_dat app.qold Access.Write ]
      AK.save_soln
  in
  let adt_calc =
    loop "adt_calc"
      ~hand_fn:(fun () -> AHand.adt_calc hand)
      app.cells
      [
        ind app.x app.cell_nodes 0 Access.Read;
        ind app.x app.cell_nodes 1 Access.Read;
        ind app.x app.cell_nodes 2 Access.Read;
        ind app.x app.cell_nodes 3 Access.Read;
        Op2.arg_dat app.q Access.Read;
        Op2.arg_dat app.adt Access.Write;
      ]
      AK.adt_calc
  in
  let res_calc =
    loop "res_calc"
      ~hand_fn:(fun () -> AHand.res_calc hand)
      app.edges
      [
        ind app.x app.edge_nodes 0 Access.Read;
        ind app.x app.edge_nodes 1 Access.Read;
        ind app.q app.edge_cells 0 Access.Read;
        ind app.q app.edge_cells 1 Access.Read;
        ind app.adt app.edge_cells 0 Access.Read;
        ind app.adt app.edge_cells 1 Access.Read;
        ind app.res app.edge_cells 0 Access.Inc;
        ind app.res app.edge_cells 1 Access.Inc;
      ]
      AK.res_calc
  in
  let bres_calc =
    loop "bres_calc"
      ~hand_fn:(fun () -> AHand.bres_calc hand)
      app.bedges
      [
        ind app.x app.bedge_nodes 0 Access.Read;
        ind app.x app.bedge_nodes 1 Access.Read;
        ind app.q app.bedge_cell 0 Access.Read;
        ind app.adt app.bedge_cell 0 Access.Read;
        ind app.res app.bedge_cell 0 Access.Inc;
        Op2.arg_dat app.bound Access.Read;
      ]
      AK.bres_calc
  in
  let update =
    loop "update"
      ~hand_fn:(fun () -> ignore (AHand.update hand))
      app.cells
      [
        Op2.arg_dat app.qold Access.Read;
        Op2.arg_dat app.q Access.Write;
        Op2.arg_dat app.res Access.Rw;
        Op2.arg_dat app.adt Access.Read;
        Op2.arg_gbl ~name:"rms" rms Access.Inc;
      ]
      AK.update
  in
  (* One outer iteration: save, then two inner cycles. *)
  [ save_soln; adt_calc; res_calc; bres_calc; update; adt_calc; res_calc; bres_calc; update ]

let airfoil ~name ~nx ~ny ~mode ~describe =
  let cells = nx * ny in
  let nodes = (nx + 1) * (ny + 1) in
  {
    name;
    app = `Airfoil;
    cells;
    (* q, qold, res: 4 per cell; adt: 1 per cell; x: 2 per node; bound: 1
       per boundary edge (at most the perimeter). *)
    dat_bytes = 8 * ((13 * cells) + (2 * nodes) + (2 * (nx + ny)));
    describe;
    prepare =
      (fun ~seed ->
        let mesh = Umesh.generate_airfoil ~nx ~ny () in
        let q0 = AApp.initial_q mesh in
        let f = factors ~seed (Array.length q0) in
        let q0 = Array.mapi (fun i v -> v *. f.(i)) q0 in
        let partition () =
          match mode with
          | A_seq -> (0.0, 0)
          | A_hybrid { ranks; _ } ->
            let dual =
              Am_mesh.Csr.of_map_rows ~n_vertices:mesh.Umesh.n_cells
                ~n_rows:mesh.Umesh.n_edges ~arity:2 mesh.Umesh.edge_cells
            in
            let t0 = now () in
            let parts = Am_mesh.Partition.kway dual ~parts:ranks in
            let dt = now () -. t0 in
            (dt, Am_mesh.Partition.halo_volume dual parts)
        in
        let setup () =
          let app, create_s =
            phase "create" (fun () ->
                let app = AApp.create mesh in
                (* [Op2.update] keeps the array it is given on Aos contexts,
                   so it gets a copy: [q0] must stay the initial state. *)
                Op2.update app.AApp.ctx app.AApp.q (Array.copy q0);
                app)
          in
          let (), partition_s =
            phase "partition" (fun () ->
                match mode with
                | A_seq -> ()
                | A_hybrid { ranks; pool } ->
                  Op2.partition app.AApp.ctx ~n_ranks:ranks
                    ~strategy:(Op2.Kway_through app.AApp.edge_cells);
                  Op2.set_rank_execution app.AApp.ctx
                    (Op2.Rank_shared { pool = Lazy.force pool; block_size = 256 });
                  Op2.set_comm_mode app.AApp.ctx Op2.Overlap)
          in
          let (), first_step_s = phase "first_step" (fun () -> ignore (AApp.iteration app)) in
          let hand = AHand.create mesh in
          Array.blit q0 0 hand.AHand.q 0 (Array.length q0);
          ignore (AHand.iteration hand);
          let ctx = app.AApp.ctx in
          ( {
              fw_step = (fun () -> ignore (AApp.iteration app));
              hand_step = (fun () -> ignore (AHand.iteration hand));
              discrepancy =
                (fun () -> discrepancy [ (Op2.fetch ctx app.AApp.q, hand.AHand.q) ]);
              corrupt =
                (fun ~by ->
                  let q = Op2.fetch ctx app.AApp.q in
                  q.(1) <- q.(1) *. (1.0 +. by);
                  Op2.update ctx app.AApp.q q);
              profile = Op2.profile ctx;
              ladder = (fun () -> airfoil_ladder app hand);
            },
            { create_s; partition_s; first_step_s } )
        in
        { setup; partition_probe = partition });
  }

(* ---- CloverLeaf (OPS) ------------------------------------------------- *)

type clover_mode = C_seq | C_grid of { px : int; py : int }

let clover_ladder (app : CApp.t) (hand : CHand.t) =
  let ctx = app.CApp.ctx in
  let loop name ?(covers = [ name ]) ?hand_fn range args kernel =
    let handle = Ops.make_handle () in
    {
      Ladder.name;
      covers;
      run =
        (fun k -> Ops.par_loop ctx ~name:("ladder_" ^ name) ~handle app.CApp.grid range args k);
      kernel;
      hand = hand_fn;
    }
  in
  let a = Ops.arg_dat in
  let pt = CApp.s_pt and up = CApp.s_quad_up and down = CApp.s_quad_down in
  let on_cells = CApp.cells app and on_nodes = CApp.nodes app in
  let on_xfaces = CApp.xfaces app and on_yfaces = CApp.yfaces app in
  let on_cells_ext = CApp.cells_ext app and on_nodes_ext = CApp.nodes_ext app in
  let cst = [| app.CApp.dx; app.CApp.dy; 1e-4; CApp.volume app |] in
  let dt_min = [| 0.04 |] in
  let open CApp in
  let ideal_gas =
    loop "ideal_gas" on_cells
      [
        a app.density0 pt Access.Read;
        a app.energy0 pt Access.Read;
        a app.pressure pt Access.Write;
        a app.soundspeed pt Access.Write;
      ]
      CK.ideal_gas
  in
  let calc_dt =
    loop "calc_dt"
      ~hand_fn:(fun () -> CHand.timestep hand) on_cells
      [
        a app.soundspeed pt Access.Read;
        a app.viscosity pt Access.Read;
        a app.density0 pt Access.Read;
        a app.xvel0 up Access.Read;
        a app.yvel0 up Access.Read;
        Ops.arg_gbl ~name:"celldims" app.dims_buf Access.Read;
        Ops.arg_gbl ~name:"dt" dt_min Access.Min;
      ]
      CK.calc_dt
  in
  let viscosity =
    loop "viscosity" on_cells
      [
        a app.xvel0 up Access.Read;
        a app.yvel0 up Access.Read;
        a app.density0 pt Access.Read;
        a app.viscosity pt Access.Write;
        Ops.arg_gbl ~name:"celldims" app.dims_buf Access.Read;
      ]
      CK.viscosity
  in
  let pdv =
    loop "PdV" ~covers:[ "PdV"; "PdV_predict" ] on_cells
      [
        a app.xvel0 up Access.Read;
        a app.yvel0 up Access.Read;
        a app.xvel1 up Access.Read;
        a app.yvel1 up Access.Read;
        a app.density0 pt Access.Read;
        a app.energy0 pt Access.Read;
        a app.pressure pt Access.Read;
        a app.viscosity pt Access.Read;
        a app.density1 pt Access.Write;
        a app.energy1 pt Access.Write;
        Ops.arg_gbl ~name:"consts" cst Access.Read;
      ]
      CK.pdv
  in
  let accelerate =
    loop "accelerate" on_nodes
      [
        a app.density0 down Access.Read;
        a app.pressure down Access.Read;
        a app.viscosity down Access.Read;
        a app.xvel0 pt Access.Read;
        a app.yvel0 pt Access.Read;
        a app.xvel1 pt Access.Write;
        a app.yvel1 pt Access.Write;
        Ops.arg_gbl ~name:"consts" cst Access.Read;
      ]
      CK.accelerate
  in
  let flux_calc_x =
    loop "flux_calc_x" on_xfaces
      [
        a app.xvel0 s_p1y Access.Read;
        a app.xvel1 s_p1y Access.Read;
        a app.vol_flux_x pt Access.Write;
        Ops.arg_gbl ~name:"consts" cst Access.Read;
      ]
      CK.flux_calc_x
  in
  let flux_calc_y =
    loop "flux_calc_y" on_yfaces
      [
        a app.yvel0 s_p1x Access.Read;
        a app.yvel1 s_p1x Access.Read;
        a app.vol_flux_y pt Access.Write;
        Ops.arg_gbl ~name:"consts" cst Access.Read;
      ]
      CK.flux_calc_y
  in
  let advec_vol =
    loop "advec_vol" ~covers:[ "advec_vol_x"; "advec_vol_y" ] on_cells_ext
      [
        a app.vol_flux_x s_p1x Access.Read;
        a app.vol_flux_y s_p1y Access.Read;
        a app.pre_vol pt Access.Write;
        a app.post_vol pt Access.Write;
        Ops.arg_gbl ~name:"volume" app.vols_buf Access.Read;
      ]
      CK.advec_vol_x
  in
  let advec_flux_x =
    loop "advec_flux_x" on_xfaces
      [
        a app.vol_flux_x pt Access.Read;
        a app.density1 s_m1x Access.Read;
        a app.energy1 s_m1x Access.Read;
        a app.mass_flux_x pt Access.Write;
        a app.ener_flux_x pt Access.Write;
      ]
      CK.advec_flux_x
  in
  let advec_flux_y =
    loop "advec_flux_y" on_yfaces
      [
        a app.vol_flux_y pt Access.Read;
        a app.density1 s_m1y Access.Read;
        a app.energy1 s_m1y Access.Read;
        a app.mass_flux_y pt Access.Write;
        a app.ener_flux_y pt Access.Write;
      ]
      CK.advec_flux_y
  in
  let advec_cell_x =
    loop "advec_cell_x" on_cells
      [
        a app.mass_flux_x s_p1x Access.Read;
        a app.ener_flux_x s_p1x Access.Read;
        a app.pre_vol pt Access.Read;
        a app.post_vol pt Access.Read;
        a app.density1 pt Access.Rw;
        a app.energy1 pt Access.Rw;
      ]
      CK.advec_cell
  in
  let advec_cell_y =
    loop "advec_cell_y" on_cells
      [
        a app.mass_flux_y s_p1y Access.Read;
        a app.ener_flux_y s_p1y Access.Read;
        a app.pre_vol pt Access.Read;
        a app.post_vol pt Access.Read;
        a app.density1 pt Access.Rw;
        a app.energy1 pt Access.Rw;
      ]
      CK.advec_cell
  in
  let mom_node_mass =
    loop "mom_node_mass" on_nodes
      [
        a app.density1 down Access.Read;
        a app.node_mass_post pt Access.Write;
        Ops.arg_gbl ~name:"volume" app.vols_buf Access.Read;
      ]
      CK.mom_node_mass
  in
  let mom_flux =
    loop "mom_flux" on_nodes
      [
        a app.node_flux pt Access.Read;
        a app.xvel1 s_m1x Access.Read;
        a app.mom_flux pt Access.Write;
      ]
      CK.mom_flux
  in
  let mom_vel =
    loop "mom_vel" on_nodes
      [
        a app.node_flux s_p1x Access.Read;
        a app.mom_flux s_p1x Access.Read;
        a app.node_mass_post pt Access.Read;
        a app.xvel1 pt Access.Rw;
      ]
      CK.mom_vel
  in
  let reset_cell =
    loop "reset_cell" ~covers:[ "reset_density"; "reset_energy" ] on_cells_ext
      [ a app.density1 pt Access.Read; a app.density0 pt Access.Write ]
      CK.reset_field
  in
  let reset_node =
    loop "reset_node" ~covers:[ "reset_xvel"; "reset_yvel" ] on_nodes_ext
      [ a app.xvel1 pt Access.Read; a app.xvel0 pt Access.Write ]
      CK.reset_field
  in
  (* The loops in the order of [CApp.hydro_step]; a loop that runs on
     several datasets or directions is represented by one of them. *)
  [
    ideal_gas; viscosity; calc_dt; pdv; ideal_gas; accelerate; pdv; flux_calc_x; flux_calc_y;
    advec_vol; advec_flux_x; advec_cell_x; advec_vol; advec_flux_y; advec_cell_y;
    mom_node_mass; mom_flux; mom_vel; mom_flux; mom_vel;
    mom_node_mass; mom_flux; mom_vel; mom_flux; mom_vel;
    reset_cell; reset_cell; reset_node; reset_node;
  ]

let clover_fields (app : CApp.t) (hand : CHand.t) =
  CApp.[ (app.density0, hand.CHand.density0); (app.energy0, hand.CHand.energy0);
         (app.xvel0, hand.CHand.xvel0); (app.yvel0, hand.CHand.yvel0) ]

let hand_interior (f : CHand.field) =
  Array.init (f.CHand.xs * f.CHand.ys) (fun i -> CHand.get f (i mod f.CHand.xs) (i / f.CHand.xs))

let cloverleaf ~name ~n ~mode ~describe =
  let cell = (n + 4) * (n + 4) and node = (n + 5) * (n + 5) and face = (n + 5) * (n + 4) in
  {
    name;
    app = `Cloverleaf;
    cells = n * n;
    (* 9 cell-centred, 7 node-centred and 6 face fields, ghosts included *)
    dat_bytes = 8 * ((9 * cell) + (7 * node) + (6 * face));
    describe;
    prepare =
      (fun ~seed ->
        (* Padded (ghost-inclusive) perturbed initial density and energy,
           indexed from (-2, -2). *)
        let w = n + 4 in
        let fd = factors ~seed (w * w) and fe = factors ~seed:(seed + 1) (w * w) in
        let h = CApp.domain_size /. float_of_int n in
        let centre c = (float_of_int c +. 0.5) *. h in
        let at f x y = f.(((y + 2) * w) + x + 2) in
        let density x y = CApp.initial_density (centre x) (centre y) *. at fd x y in
        let energy x y = CApp.initial_energy (centre x) (centre y) *. at fe x y in
        let setup () =
          let app, create_s =
            phase "create" (fun () ->
                let app = CApp.create ~nx:n ~ny:n () in
                Ops.init app.CApp.ctx app.CApp.density0 (fun x y _ -> density x y);
                Ops.init app.CApp.ctx app.CApp.energy0 (fun x y _ -> energy x y);
                app)
          in
          let ctx = app.CApp.ctx in
          let (), partition_s =
            phase "partition" (fun () ->
                match mode with
                | C_seq -> ()
                | C_grid { px; py } ->
                  Ops.partition_grid ctx ~px ~py ~ref_xsize:n ~ref_ysize:n;
                  Ops.set_comm_mode ctx Ops.Overlap)
          in
          let (), first_step_s = phase "first_step" (fun () -> ignore (CApp.hydro_step app)) in
          let hand = CHand.create ~nx:n ~ny:n () in
          for y = -2 to n + 1 do
            for x = -2 to n + 1 do
              CHand.set hand.CHand.density0 x y (density x y);
              CHand.set hand.CHand.energy0 x y (energy x y)
            done
          done;
          ignore (CHand.hydro_step hand);
          ( {
              fw_step = (fun () -> ignore (CApp.hydro_step app));
              hand_step = (fun () -> ignore (CHand.hydro_step hand));
              discrepancy =
                (fun () ->
                  discrepancy
                    (List.map
                       (fun (d, f) -> (Ops.fetch_interior ctx d, hand_interior f))
                       (clover_fields app hand)));
              corrupt =
                (fun ~by ->
                  (* The interior comes from [fetch_interior], which reads
                     the rank windows when partitioned; the ghost ring from
                     the canonical storage, which the step re-mirrors before
                     reading it.  [Ops.init] pushes both to the windows. *)
                  let d = app.CApp.energy0 in
                  let interior = Ops.fetch_interior ctx d in
                  Ops.init ctx d (fun x y c ->
                      if x >= 0 && x < n && y >= 0 && y < n then
                        let v = interior.((y * n) + x) in
                        if x = 1 && y = 1 then v *. (1.0 +. by) else v
                      else Ops.get d ~x ~y ~c));
              profile = Ops.profile ctx;
              ladder = (fun () -> clover_ladder app hand);
            },
            { create_s; partition_s; first_step_s } )
        in
        { setup; partition_probe = (fun () -> (0.0, 0)) });
  }

(* ---- The workload table ----------------------------------------------- *)

let all ~pool =
  [
    airfoil ~name:"airfoil_seq" ~nx:600 ~ny:400 ~mode:A_seq
      ~describe:"Airfoil (OP2), Seq, 600x400 cells";
    cloverleaf ~name:"cloverleaf_seq" ~n:384 ~mode:C_seq
      ~describe:"CloverLeaf 2D (OPS), Seq, 384x384 cells";
    airfoil ~name:"airfoil_hybrid" ~nx:120 ~ny:80
      ~mode:(A_hybrid { ranks = 4; pool })
      ~describe:"Airfoil (OP2), 4 k-way ranks x Rank_shared pool, Overlap, 120x80 cells";
    cloverleaf ~name:"cloverleaf_mpi2d" ~n:128 ~mode:(C_grid { px = 2; py = 2 })
      ~describe:"CloverLeaf 2D (OPS), 2x2 grid ranks, Overlap, 128x128 cells";
  ]
