module W = Perfbench.Workload
module R = Perfbench.Run

let pool = lazy (Am_taskpool.Pool.create ~size:(Perfbench.Host.max_domains ()) ())

let tiny =
  [
    W.airfoil ~name:"airfoil_seq" ~nx:24 ~ny:16 ~mode:W.A_seq ~describe:"";
    W.airfoil ~name:"airfoil_hybrid" ~nx:24 ~ny:16
      ~mode:(W.A_hybrid { ranks = 4; pool })
      ~describe:"";
    W.cloverleaf ~name:"cloverleaf_seq" ~n:16 ~mode:W.C_seq ~describe:"";
    W.cloverleaf ~name:"cloverleaf_mpi2d" ~n:16 ~mode:(W.C_grid { px = 2; py = 2 }) ~describe:"";
  ]

let rounds n (inst : W.inst) = R.closed_loop inst ~stop:(fun i -> i >= n)

let clean_run (w : W.t) () =
  let inst, _ = (w.W.prepare ~seed:3).W.setup () in
  let lr = rounds 4 inst in
  Alcotest.(check int) "attempted" 4 lr.R.attempted;
  Alcotest.(check int) "failed" 0 lr.R.failed

(* One clean round; the state rewritten unchanged through the public
   write path must stay clean, and a single framework value perturbed by
   a relative 1e-6 through the same path must fail every later round. *)
let corrupted_run (w : W.t) () =
  let inst, _ = (w.W.prepare ~seed:3).W.setup () in
  Alcotest.(check int) "clean round" 0 (rounds 1 inst).R.failed;
  inst.W.corrupt ~by:0.0;
  Alcotest.(check int) "unchanged rewrite" 0 (rounds 1 inst).R.failed;
  inst.W.corrupt ~by:1e-6;
  let lr = rounds 2 inst in
  Alcotest.(check int) "corrupted rounds" 2 lr.R.failed

(* Small arrays: the smoke checks the traced path, not the host. *)
let host = lazy (Perfbench.Host.measure_ceilings ~n:65536 ~reps:1 ())

let value name (t : R.traced) =
  match List.find_opt (fun x -> x.R.m_name = name) t.R.t_metrics with
  | Some x -> x.R.m_value
  | None -> Alcotest.failf "metric %s missing" name

let traced_smoke (w : W.t) () =
  let path part = Printf.sprintf "trace_smoke_%s_%s.json" w.W.name part in
  let t =
    R.traced_run w ~host:(Lazy.force host) ~seed:5 ~seconds:0.5 ~trace_file:path
  in
  Alcotest.(check int) "failed" 0 t.R.t_failed;
  Alcotest.(check (float 0.0)) "dropped spans" 0.0 (value "trace.dropped_spans" t);
  let residual = value "trace.residual_frac" t in
  Printf.printf "%s: trace.residual_frac %.4f, ladder.residual_frac %.4f\n" w.W.name residual
    (value "ladder.residual_frac" t);
  Alcotest.(check bool) "residual is a fraction" true (residual >= 0.0 && residual <= 1.0);
  List.iter
    (fun part ->
      let text = In_channel.with_open_bin (path part) In_channel.input_all in
      match Am_util.Json.parse text with
      | Ok (Am_util.Json.Obj _ | Am_util.Json.List _) -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s is not a Chrome trace" (path part))
    [ "steps"; "ladder" ];
  Alcotest.(check bool) "ladder rows" true (t.R.ladder_rows <> [])

let () =
  let by name = List.find (fun w -> w.W.name = name) tiny in
  let cases f names = List.map (fun n -> Alcotest.test_case n `Quick (f (by n))) names in
  let all = List.map (fun w -> w.W.name) tiny in
  Fun.protect
    ~finally:(fun () -> if Lazy.is_val pool then Am_taskpool.Pool.shutdown (Lazy.force pool))
    (fun () ->
      Alcotest.run "perfbench"
        [
          ("clean", cases clean_run all);
          ("corrupted", cases corrupted_run all);
          ("traced", cases traced_smoke all);
        ])
