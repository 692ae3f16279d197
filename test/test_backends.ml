(* Differential backend-equivalence tests.

   Every single-process backend must produce the same numbers as the
   sequential reference on identically seeded data: one Airfoil iteration
   through OP2 (Seq / Shared / Vec / Cuda_sim in all three memory
   strategies) and one CloverLeaf hydro step through OPS (Seq / Shared /
   Cuda_sim, both strategies).  Comparison is epsilon-relative, not
   bitwise: the parallel backends reassociate [Inc] reductions, so the
   last few ulps may legitimately differ.

   Also unit tests of the plan-handle executor cache: two call sites with
   the same loop signature share one plan entry and one compiled executor;
   a different block size or access descriptor resolves a distinct entry;
   invalidation and dataset replacement recompile. *)

module Op2 = Am_op2.Op2
module Plan = Am_op2.Plan
module Ops = Am_ops.Ops
module Access = Am_core.Access
module App = Am_airfoil.App
module CApp = Am_cloverleaf.App
module Umesh = Am_mesh.Umesh
module Fa = Am_util.Fa
module Pool = Am_taskpool.Pool

let eps = 1e-10

(* Deterministic "random" perturbation (no global RNG state): a cheap LCG
   so every backend sees byte-identical initial data. *)
let lcg_fill = Qcheck_util.lcg_fill

(* ---- Airfoil: one OP2 iteration per backend ------------------------------ *)

let airfoil_mesh = lazy (Umesh.generate_airfoil ~nx:24 ~ny:16 ())

(* Seed the conservative variables away from free stream so indirect
   increments are non-trivial, run exactly one iteration, return state. *)
let airfoil_state backend =
  let t = App.create (Lazy.force airfoil_mesh) in
  let q = Op2.fetch t.App.ctx t.App.q in
  lcg_fill 42 q ~scale:1e-3;
  Op2.update t.App.ctx t.App.q q;
  Op2.set_backend t.App.ctx backend;
  let rms = App.iteration t in
  (App.solution t, rms)

let airfoil_reference = lazy (airfoil_state Op2.Seq)

let check_airfoil name backend =
  let ref_sol, ref_rms = Lazy.force airfoil_reference in
  let sol, rms = airfoil_state backend in
  if not (Fa.approx_equal ~tol:eps ref_sol sol) then
    Alcotest.failf "%s: airfoil state diverges from seq (%g)" name
      (Fa.rel_discrepancy ref_sol sol);
  if Float.abs (rms -. ref_rms) /. (1.0 +. ref_rms) > eps then
    Alcotest.failf "%s: airfoil rms diverges (%.17g vs %.17g)" name rms ref_rms

let test_airfoil_shared () =
  Pool.with_pool ~size:4 (fun pool ->
      check_airfoil "shared" (Op2.Shared { pool; block_size = 48 }))

let test_airfoil_vec () =
  check_airfoil "vec" (Op2.Vec { Am_op2.Exec_vec.width = 4 })

let test_airfoil_cuda () =
  List.iter
    (fun strategy ->
      check_airfoil "cuda_sim"
        (Op2.Cuda_sim { Am_op2.Exec_cuda.block_size = 48; strategy }))
    [ Am_op2.Exec_cuda.Global_aos; Am_op2.Exec_cuda.Global_soa;
      Am_op2.Exec_cuda.Staged ]

(* ---- CloverLeaf: one OPS hydro step per backend -------------------------- *)

(* The standard energetic-corner state plus a deterministic interior
   perturbation so the step exercises asymmetric fluxes everywhere. *)
let seed_clover t =
  let bump dat seed =
    Ops.init t.CApp.ctx dat (fun x y _ ->
        let base = Ops.get dat ~x ~y ~c:0 in
        let h = ((x * 73) + (y * 179) + seed) land 0xFF in
        base *. (1.0 +. (1e-3 *. (Float.of_int h /. 255.0 -. 0.5))))
  in
  bump t.CApp.density0 7;
  bump t.CApp.energy0 13

let clover_state backend =
  let t = CApp.create ?backend ~nx:20 ~ny:20 () in
  seed_clover t;
  ignore (CApp.hydro_step t);
  (CApp.density t, CApp.energy t, CApp.xvel t, t.CApp.dt)

let clover_reference = lazy (clover_state None)

let check_clover name backend =
  let rd, re, rv, rdt = Lazy.force clover_reference in
  let d, e, v, dt = clover_state (Some backend) in
  if Float.abs (dt -. rdt) /. (1.0 +. rdt) > eps then
    Alcotest.failf "%s: clover dt diverges (%.17g vs %.17g)" name dt rdt;
  List.iter
    (fun (field, got, want) ->
      if not (Fa.approx_equal ~tol:eps want got) then
        Alcotest.failf "%s: clover %s diverges from seq (%g)" name field
          (Fa.rel_discrepancy want got))
    [ ("density", d, rd); ("energy", e, re); ("xvel", v, rv) ]

let test_clover_shared () =
  Pool.with_pool ~size:4 (fun pool -> check_clover "shared" (Ops.Shared { pool }))

let test_clover_cuda () =
  List.iter
    (fun staged ->
      check_clover "cuda_sim"
        (Ops.Cuda_sim { Am_ops.Exec.tile_x = 8; tile_y = 4; tile_z = 1; staged }))
    [ false; true ]

(* ---- Plan-handle executor cache ------------------------------------------ *)

let small_loop () =
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:8 in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:8 in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:(Array.init 16 (fun i -> (i / 2 + (i mod 2)) mod 8))
  in
  let d = Op2.decl_dat ctx ~name:"d" ~set:cells ~dim:1 ~data:(Array.make 8 1.0) in
  (ctx, edges, e2c, d)

let test_handle_shares_plan () =
  let _ctx, edges, e2c, d = small_loop () in
  let cache = Plan.make_cache () in
  let args = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let h1 = Plan.make_handle () and h2 = Plan.make_handle () in
  let e1, x1 = Plan.resolve cache h1 ~name:"k" ~iter_set:edges ~block_size:4 args in
  let e1', x1' = Plan.resolve cache h1 ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "repeat resolve: same entry" true (e1 == e1');
  Alcotest.(check bool) "repeat resolve: same executor" true (x1 == x1');
  (* A second call site with the same signature shares plan and executor. *)
  let e2, x2 = Plan.resolve cache h2 ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "same signature: shared entry" true (e1 == e2);
  Alcotest.(check bool) "same signature: shared executor" true (x1 == x2)

let test_handle_distinct_on_signature_change () =
  let ctx, edges, e2c, d = small_loop () in
  let cache = Plan.make_cache () in
  let args = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let h = Plan.make_handle () in
  let e1, x1 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args in
  (* Different block size: a distinct plan entry. *)
  let e2, _ = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:8 args in
  Alcotest.(check bool) "block size: distinct entry" true (not (e1 == e2));
  (* Different access descriptor: distinct entry and executor. *)
  let args_rd = [ Op2.arg_dat_indirect d e2c 0 Access.Read ] in
  let e3, x3 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args_rd in
  Alcotest.(check bool) "access: distinct entry" true (not (e1 == e3));
  Alcotest.(check bool) "access: distinct executor" true (not (x1 == x3));
  (* [update] writes into the dataset's own array, so the executor stays
     valid; replacing the array (a layout round trip) recompiles it in
     place. *)
  let e4, x4 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "back to original signature: entry" true (e1 == e4);
  Op2.update ctx d (Array.make 8 2.0);
  let e4', x4' = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args in
  Alcotest.(check bool) "after update: same entry" true (e4 == e4');
  Alcotest.(check bool) "after update: executor still valid" true (x4 == x4');
  Op2.convert_layout ctx d Op2.Soa;
  Op2.convert_layout ctx d Op2.Aos;
  let args' = [ Op2.arg_dat_indirect d e2c 0 Access.Inc ] in
  let e5, x5 = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args' in
  Alcotest.(check bool) "after array replacement: same entry" true (e4 == e5);
  Alcotest.(check bool) "after array replacement: recompiled executor" true
    (not (x4 == x5));
  (* Invalidation (renumbering) drops everything. *)
  Plan.invalidate cache;
  let e6, _ = Plan.resolve cache h ~name:"k" ~iter_set:edges ~block_size:4 args' in
  Alcotest.(check bool) "after invalidate: fresh entry" true (not (e5 == e6))

let () =
  Alcotest.run "backends"
    [
      ( "airfoil differential",
        [
          Alcotest.test_case "shared = seq" `Quick test_airfoil_shared;
          Alcotest.test_case "vec = seq" `Quick test_airfoil_vec;
          Alcotest.test_case "cuda-sim (all strategies) = seq" `Quick
            test_airfoil_cuda;
        ] );
      ( "cloverleaf differential",
        [
          Alcotest.test_case "shared = seq" `Quick test_clover_shared;
          Alcotest.test_case "cuda-sim (both strategies) = seq" `Quick
            test_clover_cuda;
        ] );
      ( "plan handles",
        [
          Alcotest.test_case "same signature shares plan+executor" `Quick
            test_handle_shares_plan;
          Alcotest.test_case "signature changes resolve distinct state" `Quick
            test_handle_distinct_on_signature_change;
        ] );
    ]
