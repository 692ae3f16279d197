(* Real measurements on the host machine.

   The modelled figures answer "what would this look like on the paper's
   hardware"; these tables answer the paper's *portability and overhead*
   questions directly, with wall-clock measurements of this repository's
   own backends: framework-generated execution vs the hand-coded baselines
   (Fig 3's Original-vs-OP2 and Fig 5's Original-vs-OPS question), the
   shared-memory backend's scaling on the host cores, and the effect of
   mesh renumbering on a scrambled mesh. *)

module Table = Am_util.Table
module Units = Am_util.Units
module Op2 = Am_op2.Op2
module Ops = Am_ops.Ops
module Pool = Am_taskpool.Pool
module Umesh = Am_mesh.Umesh

let time_best ?(repeats = 3) f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    f ();
    let t = Unix.gettimeofday () -. t0 in
    if t < !best then best := t
  done;
  !best

(* ---- Framework overhead: Airfoil ---- *)

let airfoil_overhead ?(nx = 120) ?(ny = 80) ?(iters = 10) () =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "measured: Airfoil %dx%d, %d iterations — hand-coded vs framework" nx ny
           iters)
      ~header:[ "configuration"; "seconds"; "vs hand-coded" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  let hand_time =
    time_best (fun () ->
        let h = Am_airfoil.Hand.create mesh in
        ignore (Am_airfoil.Hand.run h ~iters))
  in
  let add name seconds =
    Table.add_row table
      [ name; Units.seconds seconds; Printf.sprintf "%.2fx" (seconds /. hand_time) ]
  in
  add "hand-coded (Original)" hand_time;
  add "OP2 sequential"
    (time_best (fun () ->
         let t = Am_airfoil.App.create mesh in
         ignore (Am_airfoil.App.run t ~iters)));
  add "OP2 vectorised structure (8 lanes)"
    (time_best (fun () ->
         let t =
           Am_airfoil.App.create ~backend:(Op2.Vec { Am_op2.Exec_vec.width = 8 }) mesh
         in
         ignore (Am_airfoil.App.run t ~iters)));
  Pool.with_pool (fun pool ->
      add
        (Printf.sprintf "OP2 shared (%d domains)" (Pool.size pool))
        (time_best (fun () ->
             let t =
               Am_airfoil.App.create ~backend:(Op2.Shared { pool; block_size = 256 })
                 mesh
             in
             ignore (Am_airfoil.App.run t ~iters))));
  add "OP2 mpi-sim (4 ranks)"
    (time_best (fun () ->
         let t = Am_airfoil.App.create mesh in
         Op2.partition t.Am_airfoil.App.ctx ~n_ranks:4
           ~strategy:(Op2.Kway_through t.Am_airfoil.App.edge_cells);
         ignore (Am_airfoil.App.run t ~iters)));
  Pool.with_pool (fun pool ->
      add "OP2 mpi-sim + shared (hybrid)"
        (time_best (fun () ->
             let t = Am_airfoil.App.create mesh in
             Op2.partition t.Am_airfoil.App.ctx ~n_ranks:4
               ~strategy:(Op2.Kway_through t.Am_airfoil.App.edge_cells);
             Op2.set_rank_execution t.Am_airfoil.App.ctx
               (Op2.Rank_shared { pool; block_size = 256 });
             ignore (Am_airfoil.App.run t ~iters))));
  add "OP2 gpu-sim (staged)"
    (time_best (fun () ->
         let t =
           Am_airfoil.App.create
             ~backend:
               (Op2.Cuda_sim
                  { Am_op2.Exec_cuda.block_size = 128;
                    strategy = Am_op2.Exec_cuda.Staged })
             mesh
         in
         ignore (Am_airfoil.App.run t ~iters)));
  Table.print table;
  print_newline ()

(* ---- Framework overhead: CloverLeaf ---- *)

let cloverleaf_overhead ?(nx = 96) ?(ny = 96) ?(steps = 5) () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "measured: CloverLeaf %dx%d, %d steps — hand-coded vs OPS" nx
           ny steps)
      ~header:[ "configuration"; "seconds"; "vs hand-coded" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  let hand_time =
    time_best (fun () ->
        let h = Am_cloverleaf.Hand.create ~nx ~ny () in
        ignore (Am_cloverleaf.Hand.run h ~steps))
  in
  let add name seconds =
    Table.add_row table
      [ name; Units.seconds seconds; Printf.sprintf "%.2fx" (seconds /. hand_time) ]
  in
  add "hand-coded (Original)" hand_time;
  add "OPS sequential"
    (time_best (fun () ->
         let t = Am_cloverleaf.App.create ~nx ~ny () in
         ignore (Am_cloverleaf.App.run t ~steps)));
  Pool.with_pool (fun pool ->
      add
        (Printf.sprintf "OPS shared (%d domains)" (Pool.size pool))
        (time_best (fun () ->
             let t =
               Am_cloverleaf.App.create ~backend:(Ops.Shared { pool }) ~nx ~ny ()
             in
             ignore (Am_cloverleaf.App.run t ~steps))));
  add "OPS mpi-sim (4 ranks)"
    (time_best (fun () ->
         let t = Am_cloverleaf.App.create ~nx ~ny () in
         Ops.partition t.Am_cloverleaf.App.ctx ~n_ranks:4 ~ref_ysize:ny;
         ignore (Am_cloverleaf.App.run t ~steps)));
  add "OPS gpu-sim (tiled)"
    (time_best (fun () ->
         let t =
           Am_cloverleaf.App.create
             ~backend:
               (Ops.Cuda_sim
                  { Am_ops.Exec.tile_x = 32; tile_y = 4;
                    tile_z = 1; staged = true })
             ~nx ~ny ()
         in
         ignore (Am_cloverleaf.App.run t ~steps)));
  Table.print table;
  print_newline ()

(* ---- Framework overhead: Hydra-sim ---- *)

let hydra_overhead ?(nx = 64) ?(ny = 48) ?(iters = 5) () =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "measured: Hydra-sim %dx%d, %d iterations (Fig 3's \
                         Original-vs-OP2 question)" nx ny iters)
      ~header:[ "configuration"; "seconds"; "vs hand-coded" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  let hand_time =
    time_best (fun () ->
        let h = Am_hydra.Hand.create ~nx ~ny () in
        ignore (Am_hydra.Hand.run h ~iters))
  in
  let add name seconds =
    Table.add_row table
      [ name; Units.seconds seconds; Printf.sprintf "%.2fx" (seconds /. hand_time) ]
  in
  add "hand-coded (Original)" hand_time;
  add "OP2 (unoptimised mesh order)"
    (time_best (fun () ->
         let t = Am_hydra.App.create ~nx ~ny () in
         ignore (Am_hydra.App.run t ~iters)));
  add "OP2 (renumbered)"
    (time_best (fun () ->
         let t = Am_hydra.App.create ~nx ~ny () in
         ignore (Op2.renumber t.Am_hydra.App.ctx ~through:t.Am_hydra.App.edge_cells);
         ignore (Am_hydra.App.run t ~iters)));
  Table.print table;
  print_newline ()

(* ---- Framework overhead: Aero (FEM + CG) ---- *)

let aero_overhead ?(n = 48) ?(iters = 2) () =
  let mesh = Am_aero.App.generate_mesh ~n in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "measured: Aero %dx%d (FEM assembly + matrix-free CG), %d Newton \
            iterations — hand-coded vs framework" n n iters)
      ~header:[ "configuration"; "seconds"; "vs hand-coded" ]
      ~aligns:[ Table.Left; Right; Right ]
      ()
  in
  let hand_time =
    time_best (fun () ->
        let h = Am_aero.Hand.create mesh in
        ignore (Am_aero.Hand.run h ~iters))
  in
  let add name seconds =
    Table.add_row table
      [ name; Units.seconds seconds; Printf.sprintf "%.2fx" (seconds /. hand_time) ]
  in
  add "hand-coded (Original)" hand_time;
  add "OP2 sequential"
    (time_best (fun () ->
         let t = Am_aero.App.create mesh in
         ignore (Am_aero.App.run t ~iters)));
  add "OP2 vectorised structure (8 lanes)"
    (time_best (fun () ->
         let t =
           Am_aero.App.create ~backend:(Op2.Vec { Am_op2.Exec_vec.width = 8 }) mesh
         in
         ignore (Am_aero.App.run t ~iters)));
  Pool.with_pool (fun pool ->
      add
        (Printf.sprintf "OP2 shared (%d domains)" (Pool.size pool))
        (time_best (fun () ->
             let t =
               Am_aero.App.create ~backend:(Op2.Shared { pool; block_size = 256 }) mesh
             in
             ignore (Am_aero.App.run t ~iters))));
  add "OP2 mpi-sim (4 ranks, RCB)"
    (time_best (fun () ->
         let t = Am_aero.App.create mesh in
         Op2.partition t.Am_aero.App.ctx ~n_ranks:4
           ~strategy:(Op2.Rcb_on t.Am_aero.App.x);
         ignore (Am_aero.App.run t ~iters)));
  Table.print table;
  print_newline ()

(* ---- Shared-memory scaling on the host ---- *)

let shared_scaling ?(nx = 160) ?(ny = 120) ?(iters = 5) () =
  let mesh = Umesh.generate_airfoil ~nx ~ny () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "measured: Airfoil %dx%d shared-memory scaling on this host (%d core(s)             available: speedup is only expected with more cores)"
           nx ny (Domain.recommended_domain_count ()))
      ~header:[ "domains"; "seconds"; "speedup" ]
      ~aligns:[ Table.Right; Right; Right ]
      ()
  in
  let base = ref 0.0 in
  let max_domains = min 8 (max 4 (Domain.recommended_domain_count ())) in
  let sizes = List.filter (fun s -> s <= max_domains) [ 1; 2; 4; 8 ] in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let t =
            time_best ~repeats:2 (fun () ->
                let a =
                  Am_airfoil.App.create
                    ~backend:(Op2.Shared { pool; block_size = 512 })
                    mesh
                in
                ignore (Am_airfoil.App.run a ~iters))
          in
          if size = 1 then base := t;
          Table.add_row table
            [ string_of_int size; Units.seconds t; Printf.sprintf "%.2fx" (!base /. t) ]))
    sizes;
  Table.print table;
  print_newline ()

(* ---- Renumbering a scrambled mesh (Fig 3's ~30% mechanism, measured) ---- *)

let renumbering_effect ?(nx = 400) ?(ny = 300) ?(iters = 3) () =
  let scrambled = Umesh.scramble ~seed:7 (Umesh.generate_airfoil ~nx ~ny ()) in
  (* Renumbering is a one-time preprocessing step: set up outside the timed
     region, as the paper's Fig 3 timings do. *)
  let run renumber =
    let t = Am_airfoil.App.create scrambled in
    if renumber then
      ignore (Op2.renumber t.Am_airfoil.App.ctx ~through:t.Am_airfoil.App.edge_cells);
    time_best ~repeats:2 (fun () -> ignore (Am_airfoil.App.run t ~iters))
  in
  let before = run false in
  let after = run true in
  let g = Umesh.cell_dual_graph scrambled in
  let bw_before = Am_mesh.Csr.average_bandwidth g in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "measured: Airfoil %dx%d on a scrambled (production-order) mesh" nx ny)
      ~header:[ "configuration"; "seconds"; "note" ]
      ~aligns:[ Table.Left; Right; Left ]
      ()
  in
  Table.add_row table
    [ "scrambled order"; Units.seconds before;
      Printf.sprintf "dual-graph mean bandwidth %.0f" bw_before ];
  Table.add_row table
    [ "after renumbering (one-time RCM excluded)"; Units.seconds after;
      Printf.sprintf "%.0f%% faster" (100.0 *. (1.0 -. (after /. before))) ];
  Table.print table;
  print_newline ()

let all () =
  airfoil_overhead ();
  cloverleaf_overhead ();
  hydra_overhead ();
  aero_overhead ();
  shared_scaling ();
  renumbering_effect ()
