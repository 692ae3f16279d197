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

(* ---- Randomized differential test of the runners ------------------------- *)

(* Random loops checked bitwise against the Check backend (its own guarded
   gather and scatter, independent of the runners).  Data and kernel
   arithmetic stay on small integers, so every sum is exact and any
   traversal order — colours, blocks, vector packs, worker chunks — yields
   the same bits.  Each dataset argument gets its own dataset, so no loop
   reads what it writes; conflicting indirect writers agree (indirect Write
   stores an element-independent value) or commute (indirect Rw and Inc
   only add).  Case [c] draws from seed [AM_SEED + c], so a failure's seed
   replays it as case 0. *)

let n_random_cases = 40

(* What the kernel does with one argument, in argument order. *)
type role =
  | Reads of int (* staged values read into the sum *)
  | Writes of { dim : int; uniform : bool } (* Write; uniform: element-independent *)
  | Updates of { dim : int; additive : bool } (* Rw *)
  | Incs of int
  | Reduces of Access.t (* Inc/Min/Max global of one component *)

let random_kernel roles bufs =
  let v = ref 0.0 in
  List.iteri
    (fun i role ->
      match role with
      | Reads n ->
        for j = 0 to n - 1 do
          v := !v +. (Float.of_int (((i + j) mod 3) + 1) *. bufs.(i).(j))
        done
      | Writes _ | Updates _ | Incs _ | Reduces _ -> ())
    roles;
  let v = !v in
  List.iteri
    (fun i role ->
      let b = bufs.(i) in
      match role with
      | Reads _ -> ()
      | Writes { dim; uniform } ->
        for d = 0 to dim - 1 do
          b.(d) <- (if uniform then Float.of_int (i + d) else v +. Float.of_int d)
        done
      | Updates { dim; additive } ->
        for d = 0 to dim - 1 do
          b.(d) <- (if additive then b.(d) +. v +. Float.of_int d else (2.0 *. b.(d)) +. v)
        done
      | Incs dim ->
        for d = 0 to dim - 1 do
          b.(d) <- b.(d) +. v -. Float.of_int d
        done
      | Reduces Access.Inc -> b.(0) <- b.(0) +. v
      | Reduces Access.Min -> if v < b.(0) then b.(0) <- v
      | Reduces _ -> if v > b.(0) then b.(0) <- v)
    roles

let small_int rng = Float.of_int (Random.State.int rng 17 - 8)
let pick rng l = List.nth l (Random.State.int rng (List.length l))

let bitwise_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The global arguments every random case appends: a Read broadcast, then
   one Inc, Min and Max reduction. *)
let random_globals rng =
  let read = [| small_int rng; small_int rng |] in
  ( [ ("g_read", read, Access.Read, Reads 2) ]
    @ List.map
        (fun (name, access, init) -> (name, [| init |], access, Reduces access))
        [ ("g_inc", Access.Inc, 0.0); ("g_min", Access.Min, 1e9);
          ("g_max", Access.Max, -1e9) ] )

(* OP2: one random loop over a random map; returns a runner that executes it
   (twice, through one handle) on a backend and returns every dataset and
   global afterwards. *)
let random_op2_case seed =
  let rng = Random.State.make [| seed |] in
  let n_from = 1 + Random.State.int rng 90 and n_to = 1 + Random.State.int rng 30 in
  let arity = 1 + Random.State.int rng 3 in
  let map_values = Array.init (n_from * arity) (fun _ -> Random.State.int rng n_to) in
  let specs =
    List.init (1 + Random.State.int rng 6) (fun _ ->
        let dim = pick rng [ 1; 2; 4 ] in
        let idx =
          if Random.State.bool rng then Some (Random.State.int rng arity) else None
        in
        let access = pick rng [ Access.Read; Access.Write; Access.Rw; Access.Inc ] in
        (dim, idx, access, Random.State.bool rng))
  in
  let data =
    List.map
      (fun (dim, idx, _, _) ->
        Array.init ((if idx = None then n_from else n_to) * dim) (fun _ -> small_int rng))
      specs
  in
  let globals = random_globals rng in
  let describe =
    Printf.sprintf "%d->%d arity %d, args [%s]" n_from n_to arity
      (String.concat "; "
         (List.map
            (fun (dim, idx, access, soa) ->
              Printf.sprintf "%s dim %d %s%s" (Access.to_string access) dim
                (match idx with None -> "direct" | Some k -> Printf.sprintf "map[%d]" k)
                (if soa then " SoA" else ""))
            specs))
  in
  let run backend =
    let ctx = Op2.create () in
    let from_set = Op2.decl_set ctx ~name:"from" ~size:n_from in
    let to_set = Op2.decl_set ctx ~name:"to" ~size:n_to in
    let m = Op2.decl_map ctx ~name:"m" ~from_set ~to_set ~arity ~values:map_values in
    let dats =
      List.mapi
        (fun i ((dim, idx, _, soa), d) ->
          let set = if idx = None then from_set else to_set in
          let dat = Op2.decl_dat ctx ~name:(Printf.sprintf "d%d" i) ~set ~dim ~data:d in
          if soa then Op2.convert_layout ctx dat Op2.Soa;
          dat)
        (List.combine specs data)
    in
    let gbufs = List.map (fun (_, buf, _, _) -> Array.copy buf) globals in
    let args =
      List.map2
        (fun (_, idx, access, _) dat ->
          match idx with
          | None -> Op2.arg_dat dat access
          | Some k -> Op2.arg_dat_indirect dat m k access)
        specs dats
      @ List.map2
          (fun (name, _, access, _) buf -> Op2.arg_gbl ~name buf access)
          globals gbufs
    in
    let roles =
      List.map
        (fun (dim, idx, access, _) ->
          match access with
          | Access.Read -> Reads dim
          | Access.Write -> Writes { dim; uniform = idx <> None }
          | Access.Rw -> Updates { dim; additive = idx <> None }
          | Access.Inc | Access.Min | Access.Max -> Incs dim)
        specs
      @ List.map (fun (_, _, _, role) -> role) globals
    in
    Op2.set_backend ctx backend;
    let handle = Op2.make_handle () in
    for _ = 1 to 2 do
      Op2.par_loop ctx ~name:"random" ~handle from_set args (random_kernel roles)
    done;
    List.map (Op2.fetch ctx) dats @ gbufs
  in
  (describe, run)

let random_ops_case seed =
  let rng = Random.State.make [| seed |] in
  let ndim = 1 + Random.State.int rng 3 in
  let size a =
    if a >= ndim then 1 else 1 + Random.State.int rng (if ndim = 1 then 20 else 7)
  in
  let sizes = Array.init 3 size in
  let range =
    let lo = Array.map (fun s -> Random.State.int rng s) sizes in
    let hi = Array.mapi (fun a s -> lo.(a) + 1 + Random.State.int rng (s - lo.(a))) sizes in
    { Am_ops.Types.xlo = lo.(0); xhi = hi.(0); ylo = lo.(1); yhi = hi.(1); zlo = lo.(2);
      zhi = hi.(2) }
  in
  (* Offsets within [reach] along the used axes, drawn x, y, z in that
     order (tuple components evaluate in an unspecified order). *)
  let random_stencil reach =
    Array.init (1 + Random.State.int rng 5) (fun _ ->
        let o a = if a < ndim then Random.State.int rng ((2 * reach) + 1) - reach else 0 in
        let dx = o 0 in
        let dy = o 1 in
        (dx, dy, o 2))
  in
  (* (kind, dim, stencil, access); kind scales the dataset's extents. *)
  let specs =
    List.init (1 + Random.State.int rng 5) (fun _ ->
        let dim = 1 + Random.State.int rng 3 in
        match Random.State.int rng 6 with
        | 0 -> (`Unit, dim, random_stencil 2, Access.Read)
        | 1 -> (pick rng [ `Restrict; `Prolong ], dim, random_stencil 1, Access.Read)
        | _ ->
          (`Unit, dim, Am_ops.Types.stencil_point,
           pick rng [ Access.Read; Access.Write; Access.Rw; Access.Inc ]))
  in
  let with_idx = Random.State.bool rng in
  let globals = random_globals rng in
  let value_seed = Random.State.bits rng in
  let describe =
    Printf.sprintf "%dD %s over %s, args [%s]%s" ndim
      (String.concat "x" (List.map string_of_int (Array.to_list sizes)))
      (Am_ops.Types.range_to_string ~ndim range)
      (String.concat "; "
         (List.map
            (fun (kind, dim, stencil, access) ->
              Printf.sprintf "%s dim %d %d-pt%s" (Access.to_string access) dim
                (Array.length stencil)
                (match kind with
                | `Unit -> ""
                | `Restrict -> " restrict"
                | `Prolong -> " prolong"))
            specs))
      (if with_idx then " + idx" else "")
  in
  let run backend =
    let module F = Am_ops.Facade in
    let ctx = F.create ~ndim () in
    let block = F.decl_block ctx ~name:"b" in
    let dats =
      List.mapi
        (fun i (kind, dim, _, _) ->
          let ext a =
            match kind with
            | `Unit -> sizes.(a)
            | `Restrict -> if a < ndim then 2 * sizes.(a) else 1
            | `Prolong -> if a < ndim then (sizes.(a) + 1) / 2 else 1
          in
          let dat =
            F.decl_dat ctx ~name:(Printf.sprintf "d%d" i) ~block ~xsize:(ext 0)
              ~ysize:(ext 1) ~zsize:(ext 2) ~dim ()
          in
          F.init ctx dat (fun x y z c ->
              Float.of_int
                ((((x * 73) + (y * 179) + (z * 283) + (c * 37) + (i * 11) + value_seed)
                  land 0xFFFF) mod 17 - 8));
          dat)
        specs
    in
    let gbufs = List.map (fun (_, buf, _, _) -> Array.copy buf) globals in
    let args =
      List.map2
        (fun (kind, _, stencil, access) dat ->
          match kind with
          | `Unit -> F.arg_dat dat stencil access
          | `Restrict -> F.arg_dat_restrict dat stencil ~factor:2 access
          | `Prolong -> F.arg_dat_prolong dat stencil ~factor:2 access)
        specs dats
      @ (if with_idx then [ Am_ops.Types.Arg_idx ndim ] else [])
      @ List.map2 (fun (name, _, access, _) buf -> F.arg_gbl ~ndim ~name buf access) globals
          gbufs
    in
    let roles =
      List.map
        (fun (_, dim, stencil, access) ->
          match access with
          | Access.Read -> Reads (dim * Array.length stencil)
          | Access.Write -> Writes { dim; uniform = false }
          | Access.Rw -> Updates { dim; additive = false }
          | Access.Inc | Access.Min | Access.Max -> Incs dim)
        specs
      @ (if with_idx then [ Reads ndim ] else [])
      @ List.map (fun (_, _, _, role) -> role) globals
    in
    F.set_backend ctx backend;
    let handle = F.make_handle () in
    for _ = 1 to 2 do
      F.par_loop ctx ~name:"random" ~handle block range args (random_kernel roles)
    done;
    List.map (F.fetch_interior ctx) dats @ gbufs
  in
  (describe, run)

let check_random_cases ~what ~make ~backends =
  for c = 0 to n_random_cases - 1 do
    let seed = Qcheck_util.base_seed + c in
    let describe, run = make seed in
    let want = run `Check in
    List.iter
      (fun (name, backend) ->
        let got = run (`Backend backend) in
        List.iteri
          (fun i (w, g) ->
            if not (bitwise_equal w g) then
              Qcheck_util.failf_seed seed "%s %s: output %d differs from Check (%s)" what
                name i describe)
          (List.combine want got))
      (backends (Random.State.make [| seed; 1 |]))
  done

let test_random_op2 () =
  Pool.with_pool ~size:2 (fun pool ->
      check_random_cases ~what:"op2"
        ~make:(fun seed ->
          let describe, run = random_op2_case seed in
          ( describe,
            function `Check -> run Op2.Check | `Backend b -> run b ))
        ~backends:(fun rng ->
          let block_size = 1 + Random.State.int rng 32 in
          let cuda strategy = Op2.Cuda_sim { Am_op2.Exec_cuda.block_size; strategy } in
          [
            ("seq", Op2.Seq);
            ("shared", Op2.Shared { pool; block_size });
            ("vec", Op2.Vec { Am_op2.Exec_vec.width = 1 + Random.State.int rng 8 });
            ("cuda-sim NOSOA", cuda Am_op2.Exec_cuda.Global_aos);
            ("cuda-sim SOA", cuda Am_op2.Exec_cuda.Global_soa);
            ("cuda-sim STAGE", cuda Am_op2.Exec_cuda.Staged);
          ]))

let test_random_ops () =
  Pool.with_pool ~size:2 (fun pool ->
      check_random_cases ~what:"ops"
        ~make:(fun seed ->
          let describe, run = random_ops_case seed in
          ( describe,
            function `Check -> run Am_ops.Facade.Check | `Backend b -> run b ))
        ~backends:(fun rng ->
          let tile () = 1 + Random.State.int rng 6 in
          let cuda staged =
            Am_ops.Facade.Cuda_sim
              { Am_ops.Exec.tile_x = tile (); tile_y = tile (); tile_z = tile (); staged }
          in
          [
            ("seq", Am_ops.Facade.Seq);
            ("shared", Am_ops.Facade.Shared { pool });
            ("cuda-sim", cuda false);
            ("cuda-sim staged", cuda true);
          ]))

(* ---- The runners allocate nothing per point ------------------------------ *)

(* Minor words one steady-state handle call allocates: the fewest over a few
   calls made after warm-up calls that compile the tables and probe the
   kernel, so a one-off growth of some registry does not count. *)
let steady_minor_words call =
  for _ = 1 to 3 do
    call ()
  done;
  List.fold_left Float.min Float.infinity
    (List.init 5 (fun _ ->
         let before = Gc.minor_words () in
         call ();
         Gc.minor_words () -. before))

let op2_loop_words n =
  let ctx = Op2.create () in
  let cells = Op2.decl_set ctx ~name:"cells" ~size:n in
  let edges = Op2.decl_set ctx ~name:"edges" ~size:n in
  let e2c =
    Op2.decl_map ctx ~name:"e2c" ~from_set:edges ~to_set:cells ~arity:2
      ~values:(Array.init (2 * n) (fun i -> ((i / 2) + (i mod 2)) mod n))
  in
  let x = Op2.decl_dat ctx ~name:"x" ~set:edges ~dim:2 ~data:(Array.make (2 * n) 1.0) in
  let y = Op2.decl_dat_zero ctx ~name:"y" ~set:edges ~dim:1 in
  let r = Op2.decl_dat_zero ctx ~name:"r" ~set:cells ~dim:1 in
  let sum = [| 0.0 |] in
  let args =
    [ Op2.arg_dat x Access.Read; Op2.arg_dat_indirect r e2c 1 Access.Inc;
      Op2.arg_dat y Access.Write; Op2.arg_gbl ~name:"sum" sum Access.Inc ]
  in
  let handle = Op2.make_handle () in
  steady_minor_words (fun () ->
      Op2.par_loop ctx ~name:"alloc" ~handle edges args (fun b ->
          b.(2).(0) <- b.(0).(0) +. b.(0).(1);
          b.(1).(0) <- b.(0).(0);
          b.(3).(0) <- b.(3).(0) +. 1.0))

let ops_loop_words n =
  let ctx = Ops.create () in
  let grid = Ops.decl_block ctx ~name:"grid" in
  let a = Ops.decl_dat ctx ~name:"a" ~block:grid ~xsize:n ~ysize:n () in
  let b = Ops.decl_dat ctx ~name:"b" ~block:grid ~xsize:n ~ysize:n ~dim:2 () in
  let lo = [| 1e9 |] in
  let args =
    [ Ops.arg_dat a Ops.stencil_2d_5pt Access.Read;
      Ops.arg_dat b Ops.stencil_point Access.Rw;
      Ops.arg_idx; Ops.arg_gbl ~name:"lo" lo Access.Min ]
  in
  let handle = Ops.make_handle () in
  steady_minor_words (fun () ->
      Ops.par_loop ctx ~name:"alloc" ~handle grid (Ops.interior a) args (fun k ->
          k.(1).(0) <- k.(1).(0) +. k.(0).(0) +. k.(0).(4);
          k.(1).(1) <- k.(2).(0);
          if k.(0).(0) < k.(3).(0) then k.(3).(0) <- k.(0).(0)))

let test_zero_alloc () =
  let check what words =
    let small = words 64 and large = words 256 in
    if large > small then
      Alcotest.failf "%s: a steady-state Seq loop allocates %.0f minor words at the \
                      small size but %.0f at the large one"
        what small large
  in
  check "Op2.par_loop" op2_loop_words;
  check "Ops.par_loop" ops_loop_words

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
      ( "runner differential",
        [
          Alcotest.test_case "random op2 loops = check" `Quick test_random_op2;
          Alcotest.test_case "random ops loops = check" `Quick test_random_ops;
          Alcotest.test_case "steady-state loops allocate nothing per point" `Quick
            test_zero_alloc;
        ] );
      ( "plan handles",
        [
          Alcotest.test_case "same signature shares plan+executor" `Quick
            test_handle_shares_plan;
          Alcotest.test_case "signature changes resolve distinct state" `Quick
            test_handle_distinct_on_signature_change;
        ] );
    ]
