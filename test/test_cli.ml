(* Command-line validation of the six proxy drivers.

   A size or rank count the application cannot build (zero or negative
   cells, zero ranks, an odd Hydra grid, a non-number) is a usage error:
   the driver must exit 124 — Cmdliner's code for a command-line error —
   with a message on stderr that names the offending flag, before any mesh
   or partition setup runs.  A rank count the mesh cannot be split over
   (more ranks than cells on a partitioned axis, or chunks thinner than the
   ghost depth) is one too: only the partitioner knows the ghost depth, so
   it is rejected there, with the same exit code and a message naming
   --ranks.  The smallest valid sizes must still run to completion. *)

let exe name = Filename.concat "../bin" (name ^ ".exe")

(* Runs [name args], returning the exit code and everything written to
   stderr (stdout is discarded). *)
let run name args =
  let err = Filename.temp_file "am_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let cmd = Filename.quote_command (exe name) args ~stdout:Filename.null ~stderr:err in
      let code = Sys.command cmd in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      (code, stderr))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec from i = i + m <= n && (String.sub s i m = sub || from (i + 1)) in
  from 0

let usage_error name args ~flag ~expected () =
  let code, stderr = run name args in
  let cmd = String.concat " " (name :: args) in
  Alcotest.(check int) (cmd ^ ": exit code") 124 code;
  let names_flag = Printf.sprintf "option '%s'" flag in
  if not (contains stderr names_flag) then
    Alcotest.failf "%s: stderr does not name %s:\n%s" cmd flag stderr;
  if not (contains stderr expected) then
    Alcotest.failf "%s: stderr does not say %S:\n%s" cmd expected stderr

let positive = "expected a positive integer"
let positive_even = "expected a positive even integer"
let no_fit = "ranks do not fit this mesh"

let runs_clean name args () =
  let code, stderr = run name args in
  if code <> 0 then
    Alcotest.failf "%s: exit %d\n%s" (String.concat " " (name :: args)) code stderr

let case name args ~flag ~expected =
  Alcotest.test_case
    (String.concat " " (name :: args))
    `Quick
    (usage_error name args ~flag ~expected)

let () =
  Alcotest.run "cli"
    [
      ( "sizes",
        [
          case "cloverleaf" [ "--nx"; "0" ] ~flag:"--nx" ~expected:positive;
          case "cloverleaf" [ "--ny=-3" ] ~flag:"--ny" ~expected:positive;
          case "cloverleaf" [ "--nx"; "abc" ] ~flag:"--nx" ~expected:positive;
          case "airfoil" [ "--nx"; "0" ] ~flag:"--nx" ~expected:positive;
          case "airfoil" [ "--ny"; "0" ] ~flag:"--ny" ~expected:positive;
          case "aero" [ "--size"; "0" ] ~flag:"--size" ~expected:positive;
          case "tealeaf" [ "--size"; "0" ] ~flag:"--size" ~expected:positive;
          case "cloverleaf3" [ "--size"; "0" ] ~flag:"--size" ~expected:positive;
          case "hydra" [ "--nx"; "0" ] ~flag:"--nx" ~expected:positive_even;
          case "hydra" [ "--nx"; "15" ] ~flag:"--nx" ~expected:positive_even;
          case "hydra" [ "--ny"; "7" ] ~flag:"--ny" ~expected:positive_even;
        ] );
      ( "ranks",
        [
          case "airfoil" [ "--ranks"; "0"; "--backend"; "mpi" ] ~flag:"--ranks"
            ~expected:positive;
          case "cloverleaf" [ "--ranks"; "0"; "--backend"; "mpi" ] ~flag:"--ranks"
            ~expected:positive;
          case "tealeaf" [ "--ranks"; "0"; "--backend"; "mpi" ] ~flag:"--ranks"
            ~expected:positive;
          case "aero" [ "--ranks"; "0" ] ~flag:"--ranks" ~expected:positive;
          case "hydra" [ "--ranks"; "0" ] ~flag:"--ranks" ~expected:positive;
          case "cloverleaf3" [ "--ranks=-1" ] ~flag:"--ranks" ~expected:positive;
        ] );
      ( "rank fit",
        [
          case "cloverleaf"
            [ "--nx"; "8"; "--ny"; "6"; "--backend"; "mpi"; "--ranks"; "4" ]
            ~flag:"--ranks" ~expected:no_fit;
          case "cloverleaf"
            [ "--nx"; "3"; "--ny"; "3"; "--backend"; "hybrid"; "--ranks"; "5" ]
            ~flag:"--ranks" ~expected:no_fit;
          case "cloverleaf"
            [ "--nx"; "2"; "--ny"; "2"; "--backend"; "mpi2d"; "--ranks"; "9" ]
            ~flag:"--ranks" ~expected:no_fit;
          case "tealeaf" [ "--size"; "4"; "--backend"; "mpi"; "--ranks"; "8" ]
            ~flag:"--ranks" ~expected:no_fit;
          case "cloverleaf3" [ "--size"; "4"; "--backend"; "mpi"; "--ranks"; "8" ]
            ~flag:"--ranks" ~expected:no_fit;
          case "cloverleaf3" [ "--size"; "4"; "--backend"; "pencil"; "--ranks"; "16" ]
            ~flag:"--ranks" ~expected:no_fit;
        ] );
      ( "smallest valid sizes",
        [
          Alcotest.test_case "cloverleaf 1x1" `Quick
            (runs_clean "cloverleaf" [ "--nx"; "1"; "--ny"; "1"; "--steps"; "1" ]);
          Alcotest.test_case "hydra 2x2" `Quick
            (runs_clean "hydra" [ "--nx"; "2"; "--ny"; "2"; "--iters"; "1" ]);
          Alcotest.test_case "tealeaf 1^3" `Quick
            (runs_clean "tealeaf" [ "--size"; "1"; "--steps"; "1" ]);
        ] );
    ]
