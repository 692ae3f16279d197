(* Randomized multi-loop OPS programs, eager on every backend.

   A script mixes stencil loops (Write and Rw), an index-reading loop, a
   Read global refilled in place before every loop that reads it, mirrors
   and Inc/Min/Max reductions over three datasets.  The same script runs
   on a plain Seq context and on each other execution configuration.
   Datasets and Min/Max reductions must be bitwise equal to Seq, and so
   must Inc sums on the sanitizer backend; the shared-memory, GPU
   simulator and distributed backends merge per-worker, per-tile or
   per-rank partial sums, a reassociation that may move a sum by rounding
   only.
   Around the random suite sit the program-order guarantees a caller
   relies on: a reduction's value and a refilled global's value are fixed
   when [par_loop] returns, and checkpointing or an Obs export mid-run
   leaves the results unchanged. *)

module Ops = Am_ops.Ops
module Access = Am_core.Access
module Pool = Am_taskpool.Pool
module Obs = Am_obs.Obs

let xsize = 17
let ysize = 13

let bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
        ok := false)
    a;
  !ok

type env = { ctx : Ops.ctx; block : Ops.block; dats : Ops.dat array }

let make_env () =
  let ctx = Ops.create () in
  let block = Ops.decl_block ctx ~name:"b" in
  let dats =
    Array.init 3 (fun i ->
        Ops.decl_dat ctx ~name:(Printf.sprintf "d%d" i) ~block ~xsize ~ysize ())
  in
  Array.iteri
    (fun i dat ->
      Ops.init ctx dat (fun x y _ ->
          Float.of_int (((x * 31) + (y * 57) + (i * 11)) mod 23) *. 0.125))
    dats;
  { ctx; block; dats }

type step =
  | Smooth of int * int * float (* src, dst, value of the refilled global *)
  | Shift of int * int
  | Relax of int * int
  | Mirror of int
  | Sum of int
  | Extrema of int

(* The one scratch global every [Smooth] refills in place, as CloverLeaf
   refills its constants buffer. *)
let consts_buf = [| 0.0 |]

let apply env reductions step =
  match step with
  | Smooth (src, dst, c) ->
    consts_buf.(0) <- c;
    Ops.par_loop env.ctx ~name:"smooth" env.block (Ops.interior env.dats.(dst))
      [
        Ops.arg_dat env.dats.(src) Ops.stencil_2d_5pt Access.Read;
        Ops.arg_dat env.dats.(dst) Ops.stencil_point Access.Write;
        Ops.arg_gbl ~name:"consts" consts_buf Access.Read;
      ]
      (fun a ->
        a.(1).(0) <-
          a.(2).(0) *. (a.(0).(0) +. a.(0).(1) +. a.(0).(2) +. a.(0).(3) +. a.(0).(4)))
  | Shift (src, dst) ->
    Ops.par_loop env.ctx ~name:"shift" env.block (Ops.interior env.dats.(dst))
      [
        Ops.arg_dat env.dats.(src) Ops.stencil_2d_plus1y Access.Read;
        Ops.arg_dat env.dats.(dst) Ops.stencil_point Access.Write;
        Ops.arg_idx;
      ]
      (fun a -> a.(1).(0) <- a.(0).(1) +. (1e-3 *. (a.(2).(0) +. a.(2).(1))))
  | Relax (src, dst) ->
    Ops.par_loop env.ctx ~name:"relax" env.block (Ops.interior env.dats.(dst))
      [
        Ops.arg_dat env.dats.(src) Ops.stencil_2d_minus1y Access.Read;
        Ops.arg_dat env.dats.(dst) Ops.stencil_point Access.Rw;
      ]
      (fun a -> a.(1).(0) <- (0.6 *. a.(1).(0)) +. (0.4 *. a.(0).(1)))
  | Mirror i -> Ops.mirror_halo env.ctx env.dats.(i)
  | Sum i ->
    let acc = [| 0.0 |] in
    Ops.par_loop env.ctx ~name:"sum" env.block (Ops.interior env.dats.(i))
      [
        Ops.arg_dat env.dats.(i) Ops.stencil_point Access.Read;
        Ops.arg_gbl ~name:"sum" acc Access.Inc;
      ]
      (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0));
    reductions := (`Sum, acc.(0)) :: !reductions
  | Extrema i ->
    let lo = [| Float.infinity |] and hi = [| Float.neg_infinity |] in
    Ops.par_loop env.ctx ~name:"extrema" env.block (Ops.interior env.dats.(i))
      [
        Ops.arg_dat env.dats.(i) Ops.stencil_point Access.Read;
        Ops.arg_gbl ~name:"lo" lo Access.Min;
        Ops.arg_gbl ~name:"hi" hi Access.Max;
      ]
      (fun a ->
        a.(1).(0) <- Float.min a.(1).(0) a.(0).(0);
        a.(2).(0) <- Float.max a.(2).(0) a.(0).(0));
    reductions := (`Exact, hi.(0)) :: (`Exact, lo.(0)) :: !reductions

let random_script rng =
  (* A written dataset is accessed centre-only by its loop, so the
     stencil-reading source is always a different dataset. *)
  let pick2 () =
    let src = Random.State.int rng 3 in
    (src, (src + 1 + Random.State.int rng 2) mod 3)
  in
  List.init
    (3 + Random.State.int rng 22)
    (fun _ ->
      match Random.State.int rng 11 with
      | 0 | 1 | 2 ->
        let src, dst = pick2 () in
        Smooth (src, dst, 0.19 +. (0.01 *. Float.of_int (Random.State.int rng 7)))
      | 3 | 4 ->
        let src, dst = pick2 () in
        Shift (src, dst)
      | 5 | 6 ->
        let src, dst = pick2 () in
        Relax (src, dst)
      | 7 | 8 -> Mirror (Random.State.int rng 3)
      | 9 -> Sum (Random.State.int rng 3)
      | _ -> Extrema (Random.State.int rng 3))

(* Runs [script] on a fresh context configured by [setup] (called after the
   datasets are initialised); [between] runs between every two steps. *)
let run_script ?(setup = ignore) ?(between = ignore) script =
  let env = make_env () in
  setup env.ctx;
  let reductions = ref [] in
  List.iteri
    (fun i step ->
      if i > 0 then between (env, i);
      apply env reductions step)
    script;
  ( Array.map (Ops.fetch_interior env.ctx) env.dats,
    Array.of_list (List.rev !reductions) )

(* Relative bound on a reassociated Inc sum of a few hundred O(1) terms. *)
let sum_rtol = 1e-12

let reductions_match ~exact_sums want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun (kind, a) (_, b) ->
         Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
         || (kind = `Sum && (not exact_sums)
            && Float.abs (a -. b) <= sum_rtol *. Float.max 1.0 (Float.abs a)))
       want got

let mismatch ~exact_sums (ref_fields, ref_reds) (fields, reds) =
  if not (reductions_match ~exact_sums ref_reds reds) then Some "reductions"
  else
    let bad = ref None in
    Array.iteri
      (fun i got ->
        if !bad = None && not (bits_equal ref_fields.(i) got) then
          bad := Some (Printf.sprintf "dataset d%d" i))
      fields;
    !bad

let check_same ?(exact_sums = true) ~what want got =
  match mismatch ~exact_sums want got with
  | None -> ()
  | Some part -> Alcotest.failf "%s: %s differ from Seq" what part

let n_cases = 40

let random_vs_seq ?(exact_sums = true) setup () =
  for c = 0 to n_cases - 1 do
    let seed = Qcheck_util.base_seed + c in
    let script = random_script (Random.State.make [| seed |]) in
    match mismatch ~exact_sums (run_script script) (run_script ~setup script) with
    | None -> ()
    | Some part -> Qcheck_util.failf_seed seed "case %d: %s differ from Seq" c part
  done

let shared size () =
  Pool.with_pool ~size (fun pool ->
      random_vs_seq ~exact_sums:false
        (fun ctx -> Ops.set_backend ctx (Ops.Shared { pool }))
        ())

let cuda staged =
  random_vs_seq ~exact_sums:false (fun ctx ->
      Ops.set_backend ctx
        (Ops.Cuda_sim { Am_ops.Exec.tile_x = 5; tile_y = 3; tile_z = 1; staged }))

let dist n_ranks =
  random_vs_seq ~exact_sums:false (fun ctx -> Ops.partition ctx ~n_ranks ~ref_ysize:ysize)

let dist_shared () =
  Pool.with_pool ~size:2 (fun pool ->
      random_vs_seq ~exact_sums:false
        (fun ctx ->
          Ops.partition ctx ~n_ranks:3 ~ref_ysize:ysize;
          Ops.set_rank_execution ctx (Ops.Rank_shared pool))
        ())

(* ---- long programs ------------------------------------------------------- *)

let long_script =
  List.concat
    (List.init 50 (fun i -> [ Smooth (0, 1, 0.2); Relax (1, 0); Mirror (i mod 3); Sum 0 ]))

let test_long_program () =
  let want = run_script long_script in
  Pool.with_pool ~size:2 (fun pool ->
      check_same ~exact_sums:false ~what:"shared, 200 steps" want
        (run_script ~setup:(fun ctx -> Ops.set_backend ctx (Ops.Shared { pool })) long_script));
  check_same ~exact_sums:false ~what:"dist(3), 200 steps" want
    (run_script ~setup:(fun ctx -> Ops.partition ctx ~n_ranks:3 ~ref_ysize:ysize) long_script)

(* ---- program-order guarantees -------------------------------------------- *)

(* Two loops read the same global, refilled in place between them: each
   must have used the value the global held when its [par_loop] ran. *)
let test_refilled_global () =
  let check_backend name setup =
    let env = make_env () in
    setup env.ctx;
    let scale c dst =
      consts_buf.(0) <- c;
      Ops.par_loop env.ctx ~name:"scale" env.block (Ops.interior env.dats.(dst))
        [
          Ops.arg_dat env.dats.(0) Ops.stencil_point Access.Read;
          Ops.arg_dat env.dats.(dst) Ops.stencil_point Access.Write;
          Ops.arg_gbl ~name:"consts" consts_buf Access.Read;
        ]
        (fun a -> a.(1).(0) <- a.(2).(0) *. a.(0).(0))
    in
    scale 0.5 1;
    scale 4.0 2;
    consts_buf.(0) <- nan;
    let src = Ops.fetch_interior env.ctx env.dats.(0) in
    let expect c = Array.map (fun v -> c *. v) src in
    if not (bits_equal (expect 0.5) (Ops.fetch_interior env.ctx env.dats.(1))) then
      Alcotest.failf "%s: first loop did not use its own value of the global" name;
    if not (bits_equal (expect 4.0) (Ops.fetch_interior env.ctx env.dats.(2))) then
      Alcotest.failf "%s: second loop did not use its own value of the global" name
  in
  check_backend "seq" ignore;
  Pool.with_pool ~size:2 (fun pool ->
      check_backend "shared" (fun ctx -> Ops.set_backend ctx (Ops.Shared { pool })));
  check_backend "cuda-sim staged" (fun ctx ->
      Ops.set_backend ctx
        (Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 4; tile_z = 1; staged = true }));
  check_backend "dist(2)" (fun ctx -> Ops.partition ctx ~n_ranks:2 ~ref_ysize:ysize)

(* A reduction's result is in its buffer when [par_loop] returns, and it
   reduces exactly the values the dataset holds at that point. *)
let test_reduction_on_return () =
  let env = make_env () in
  let reductions = ref [] in
  apply env reductions (Smooth (0, 1, 0.2));
  let acc = [| 0.0 |] in
  Ops.par_loop env.ctx ~name:"sum" env.block (Ops.interior env.dats.(1))
    [
      Ops.arg_dat env.dats.(1) Ops.stencil_point Access.Read;
      Ops.arg_gbl ~name:"sum" acc Access.Inc;
    ]
    (fun a -> a.(1).(0) <- a.(1).(0) +. a.(0).(0));
  let want = Array.fold_left ( +. ) 0.0 (Ops.fetch_interior env.ctx env.dats.(1)) in
  if acc.(0) = 0.0 then Alcotest.fail "reduction result not in the buffer on return";
  if Float.abs (acc.(0) -. want) > 1e-12 *. Float.abs want then
    Alcotest.failf "reduction %.17g does not match the dataset's sum %.17g" acc.(0) want;
  apply env reductions (Extrema 1);
  match !reductions with
  | [ (_, hi); (_, lo) ] ->
    let values = Ops.fetch_interior env.ctx env.dats.(1) in
    Alcotest.(check (float 0.0)) "min" (Array.fold_left Float.min Float.infinity values) lo;
    Alcotest.(check (float 0.0)) "max" (Array.fold_left Float.max Float.neg_infinity values) hi
  | _ -> Alcotest.fail "expected one min and one max"

(* Switching backend between loops of one program changes nothing: each
   loop runs to completion on the backend current at its [par_loop]. *)
let test_backend_switch_mid_run () =
  let script = random_script (Random.State.make [| Qcheck_util.base_seed; 7 |]) in
  Pool.with_pool ~size:2 (fun pool ->
      let backends =
        [|
          Ops.Seq;
          Ops.Shared { pool };
          Ops.Cuda_sim { Am_ops.Exec.tile_x = 4; tile_y = 2; tile_z = 1; staged = true };
          Ops.Check;
        |]
      in
      check_same ~exact_sums:false ~what:"backend switched between loops"
        (run_script script)
        (run_script
           ~between:(fun (env, i) ->
             Ops.set_backend env.ctx backends.(i mod Array.length backends))
           script))

(* Turning checkpointing on halfway through a program changes nothing. *)
let test_checkpointing_mid_run () =
  let script = random_script (Random.State.make [| Qcheck_util.base_seed; 11 |]) in
  let half = List.length script / 2 in
  let want = run_script script in
  check_same ~what:"checkpointing enabled mid-run" want
    (run_script
       ~between:(fun (env, i) -> if i = half then Ops.enable_checkpointing env.ctx)
       script)

(* Exporting observability data between loops changes nothing. *)
let test_obs_export_mid_run () =
  let script = random_script (Random.State.make [| Qcheck_util.base_seed; 13 |]) in
  let want = run_script script in
  check_same ~what:"Obs.report between loops" want
    (run_script ~between:(fun _ -> ignore (Obs.report ())) script)

let () =
  Alcotest.run "ops chains"
    [
      ( "random programs vs Seq",
        [
          Alcotest.test_case "shared pool 1" `Quick (shared 1);
          Alcotest.test_case "shared pool 2" `Quick (shared 2);
          Alcotest.test_case "shared pool 4" `Quick (shared 4);
          Alcotest.test_case "cuda-sim global" `Quick (cuda false);
          Alcotest.test_case "cuda-sim staged" `Quick (cuda true);
          Alcotest.test_case "check" `Quick
            (random_vs_seq (fun ctx -> Ops.set_backend ctx Ops.Check));
          Alcotest.test_case "dist(2)" `Quick (dist 2);
          Alcotest.test_case "dist(3)" `Quick (dist 3);
          Alcotest.test_case "dist(3) + shared ranks" `Quick dist_shared;
          Alcotest.test_case "200-step program" `Quick test_long_program;
        ] );
      ( "program order",
        [
          Alcotest.test_case "refilled global read per loop" `Quick test_refilled_global;
          Alcotest.test_case "reduction final on return" `Quick test_reduction_on_return;
          Alcotest.test_case "backend switched between loops" `Quick
            test_backend_switch_mid_run;
          Alcotest.test_case "checkpointing enabled mid-run" `Quick
            test_checkpointing_mid_run;
          Alcotest.test_case "Obs export between loops" `Quick test_obs_export_mid_run;
        ] );
    ]
