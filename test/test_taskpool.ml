(* Tests for the domain pool: the shared-memory substrate under the OP2/OPS
   OpenMP-class backends. *)

module Pool = Am_taskpool.Pool

let test_parallel_for_covers_range () =
  Pool.with_pool ~size:4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            (* Disjoint chunks: plain increments are race-free. *)
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_parallel_for_empty_range () =
  Pool.with_pool ~size:2 (fun pool ->
      let touched = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> touched := true);
      Pool.parallel_for pool ~lo:7 ~hi:3 (fun _ _ -> touched := true);
      Alcotest.(check bool) "no work dispatched" false !touched)

let test_parallel_for_chunk_one () =
  Pool.with_pool ~size:3 (fun pool ->
      let n = 100 in
      let sum = Atomic.make 0 in
      Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            ignore (Atomic.fetch_and_add sum i)
          done);
      Alcotest.(check int) "sum of 0..99" (n * (n - 1) / 2) (Atomic.get sum))

let test_parallel_fold () =
  Pool.with_pool ~size:4 (fun pool ->
      let n = 5000 in
      let total =
        Pool.parallel_fold pool ~lo:0 ~hi:n ~init:0
          ~chunk_fold:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
          ~combine:( + )
      in
      Alcotest.(check int) "fold sum" (n * (n - 1) / 2) total)

let test_parallel_fold_empty () =
  Pool.with_pool ~size:2 (fun pool ->
      let v =
        Pool.parallel_fold pool ~lo:0 ~hi:0 ~init:42 ~chunk_fold:(fun _ _ -> 0)
          ~combine:( + )
      in
      Alcotest.(check int) "init returned" 42 v)

let test_parallel_iter_indices () =
  Pool.with_pool ~size:4 (fun pool ->
      let blocks = Array.init 257 (fun i -> i * 3) in
      let seen = Array.make (257 * 3) 0 in
      Pool.parallel_iter_indices pool blocks (fun b -> seen.(b) <- seen.(b) + 1);
      Array.iter
        (fun b -> Alcotest.(check int) "block visited once" 1 seen.(b))
        blocks)

let test_exception_propagates () =
  Pool.with_pool ~size:4 (fun pool ->
      match
        Pool.parallel_for pool ~lo:0 ~hi:1000 (fun lo _ ->
            if lo >= 0 then failwith "boom")
      with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | () -> Alcotest.fail "expected the worker exception to propagate");
  (* The pool must still be usable for the next job... but with_pool closed
     it; check reusability explicitly on a fresh pool. *)
  Pool.with_pool ~size:4 (fun pool ->
      (match Pool.parallel_for pool ~lo:0 ~hi:10 (fun _ _ -> failwith "x") with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "expected failure");
      let ok = ref false in
      Pool.parallel_for pool ~lo:0 ~hi:1 (fun _ _ -> ok := true);
      Alcotest.(check bool) "pool survives a failed job" true !ok)

let test_size_one_inline () =
  Pool.with_pool ~size:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun lo hi -> acc := !acc + hi - lo);
      Alcotest.(check int) "all iterations" 100 !acc)

let test_nested_jobs_sequentially () =
  (* Consecutive jobs on one pool: results must not leak between jobs. *)
  Pool.with_pool ~size:3 (fun pool ->
      for round = 1 to 20 do
        let count = Atomic.make 0 in
        Pool.parallel_for ~chunk:7 pool ~lo:0 ~hi:(round * 13) (fun lo hi ->
            ignore (Atomic.fetch_and_add count (hi - lo)));
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (round * 13) (Atomic.get count)
      done)

(* Jobs submitted after [shutdown] run on the caller alone: the workers
   are joined, so waiting on them would deadlock. *)
let test_after_shutdown_caller_only () =
  let pool = Pool.create ~size:3 () in
  Pool.shutdown pool;
  let caller = Domain.self () in
  let hits = Array.make 50 0 and foreign = ref false in
  Pool.parallel_for ~chunk:4 pool ~lo:0 ~hi:50 (fun lo hi ->
      if Domain.self () <> caller then foreign := true;
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits);
  Alcotest.(check bool) "ran on the caller only" false !foreign

let test_shared_pool_singleton () =
  let a = Pool.shared () and b = Pool.shared () in
  Alcotest.(check bool) "same pool" true (a == b)

let () =
  Alcotest.run "taskpool"
    [
      ( "parallel_for",
        [
          Alcotest.test_case "covers range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
          Alcotest.test_case "chunk=1" `Quick test_parallel_for_chunk_one;
          Alcotest.test_case "size-1 inline" `Quick test_size_one_inline;
          Alcotest.test_case "repeated jobs" `Quick test_nested_jobs_sequentially;
        ] );
      ( "fold/blocks",
        [
          Alcotest.test_case "fold" `Quick test_parallel_fold;
          Alcotest.test_case "fold empty" `Quick test_parallel_fold_empty;
          Alcotest.test_case "iter indices" `Quick test_parallel_iter_indices;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "shared singleton" `Quick test_shared_pool_singleton;
          Alcotest.test_case "jobs after shutdown run caller-only" `Quick
            test_after_shutdown_caller_only;
        ] );
    ]
