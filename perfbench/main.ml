(* Benchmark entry point.

     main.exe --workload airfoil_seq --seed 1 --seconds 22 --trace 0

   Prints host facts, the workload's sizes next to the cache sizes, the
   run's diagnostics, and as its last line one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. *)

module W = Perfbench.Workload
module R = Perfbench.Run
module Host = Perfbench.Host

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out-dir", Arg.Set_string out_dir, "DIR where traced runs write Chrome traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let pool = lazy (Am_taskpool.Pool.create ~size:(Host.max_domains ()) ()) in
  let workloads = W.all ~pool in
  let w =
    match List.find_opt (fun w -> w.W.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.W.name) workloads));
      exit 2
  in
  let f = Host.facts () in
  let mib b = float_of_int b /. (1024.0 *. 1024.0) in
  Printf.printf "host: nproc %d, recommended domains %d, OCaml %s\n" f.Host.nproc
    f.Host.recommended_domains f.Host.ocaml_version;
  Printf.printf "caches: L1d %.3f MiB, L2 %.3f MiB, L3 %.3f MiB\n" (mib f.Host.l1d_bytes)
    (mib f.Host.l2_bytes) (mib f.Host.l3_bytes);
  Printf.printf "workload %s: %s; %d cells; framework dats %.1f MiB (%.1fx L2, %.2fx L3)\n%!"
    w.W.name w.W.describe w.W.cells (mib w.W.dat_bytes)
    (float_of_int w.W.dat_bytes /. float_of_int (max 1 f.Host.l2_bytes))
    (float_of_int w.W.dat_bytes /. float_of_int (max 1 f.Host.l3_bytes));
  let host_info =
    [
      ("workload", R.json_string w.W.name);
      ("seed", string_of_int !seed);
      ("nproc", string_of_int f.Host.nproc);
      ("recommended_domains", string_of_int f.Host.recommended_domains);
      ("ocaml", R.json_string f.Host.ocaml_version);
      ("l1d_bytes", string_of_int f.Host.l1d_bytes);
      ("l2_bytes", string_of_int f.Host.l2_bytes);
      ("l3_bytes", string_of_int f.Host.l3_bytes);
      ("dat_bytes", string_of_int w.W.dat_bytes);
      ("cells", string_of_int w.W.cells);
    ]
  in
  let correct, attempted, failed, metrics, info =
    if !trace = 0 then begin
      let r = R.end_to_end w ~seed:!seed ~seconds:!seconds in
      (r.R.failed = 0, r.R.attempted, r.R.failed, r.R.metrics, r.R.info)
    end
    else begin
      (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
      let trace_file part =
        Filename.concat !out_dir (Printf.sprintf "trace_%s_%s.json" w.W.name part)
      in
      let r =
        R.traced_run w ~host:(Host.measure_ceilings ()) ~seed:!seed ~seconds:!seconds ~trace_file
      in
      Perfbench.Ladder.print_rows r.R.ladder_rows;
      Printf.printf "layer self time (first set-up and traced rounds; seconds)\n";
      List.iter
        (fun (k, (total, self)) ->
          Printf.printf "  %-28s total %10.6f  self %10.6f\n" k (total /. 1e6) (self /. 1e6))
        r.R.layers;
      Printf.printf "chrome traces: %s, %s\n" (trace_file "steps") (trace_file "ladder");
      (r.R.t_failed = 0, r.R.t_attempted, r.R.t_failed, r.R.t_metrics, r.R.t_info)
    end
  in
  if Lazy.is_val pool then Am_taskpool.Pool.shutdown (Lazy.force pool);
  print_endline (R.info_line (host_info @ info));
  print_endline (R.result_line ~correct ~attempted ~failed metrics)
