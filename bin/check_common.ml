(* Shared --check / --analyze plumbing for the proxy-application drivers:
   the flags themselves, and the end-of-run reporting / exit-code policy.

   Under --check a driver (a) forces the sanitizer backend, which keeps
   sequential semantics but stages every kernel argument through
   canary-padded, access-guarded buffers, (b) records the loop sequence,
   and (c) runs the static analysis layers (descriptor lints + cross-loop
   dataflow) over the recorded cycle once the run finishes.

   Under --analyze the backend is left alone; the driver additionally
   diffs every kernel's probed footprint (inferred once per loop signature
   before its first execution) against the declared descriptor — the
   Verify layer — and feeds the observed read radii into the halo-schedule
   replay.

   Static error-severity findings and dynamic sanitizer violations go
   through one exit path: both print their evidence and fail the run with
   exit code 1.  Malformed sizes and rank counts never reach the run: the
   converters below reject them as usage errors (exit 124). *)

let arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Correctness-checking mode: execute on the sanitizer backend \
           (canary-padded, access-guarded staging buffers; overrides \
           $(b,--backend)), record the loop sequence, and run the access \
           descriptor and dataflow analyses over it after the run. Exits 1 \
           on any error-severity finding.")

let analyze_arg =
  let open Cmdliner in
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Static kernel verification: probe each kernel over sentinel \
           staging buffers once per loop signature, diff the observed \
           footprint against the declared access descriptor (undeclared \
           accesses are errors, declared-but-unobserved ones warnings), \
           and run the standard static layers over the recorded loop \
           sequence. Composes with $(b,--check). Exits 1 on any \
           error-severity finding.")

(* The single exit path for both failure families (static errors found
   after the run, dynamic violations raised during it): evidence first,
   then a uniform one-line verdict and exit 1. *)
let fail_run reason =
  prerr_endline (Printf.sprintf "check: %s; failing the run" reason);
  exit 1

let report r =
  print_newline ();
  print_string (Am_analysis.Analysis.report r);
  if Am_analysis.Analysis.errors r > 0 then fail_run "error-severity findings"

(* Wrap a driver body so a sanitizer violation (either facade family) is
   reported like a static error instead of escaping as an uncaught
   exception with a different exit code. *)
let guard f =
  try f () with
  | Am_op2.Exec_check.Violation msg | Am_ops.Exec_check.Violation msg ->
    prerr_endline msg;
    fail_run "dynamic access violation"

(* Converters for problem-size and rank-count flags: a value the
   application cannot build (a zero-cell mesh, zero ranks, an odd Hydra
   grid) is a usage error that names the flag, not an exception from deep
   inside mesh or partition setup. *)
let int_conv ~expected ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
  in
  Cmdliner.Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let positive_int = int_conv ~expected:"a positive integer" (fun n -> n > 0)

let positive_even_int =
  int_conv ~expected:"a positive even integer" (fun n -> n > 0 && n mod 2 = 0)

(* A rank count the mesh cannot be split over — more ranks than cells on
   a partitioned axis, or chunks thinner than the ghost depth — is a usage
   error too.  Only the partitioner knows the ghost depth, so its two fit
   rejections are the check: they become Cmdliner's command-line error exit
   (124) with a message naming the flag.  Any other [Invalid_argument] from
   the partition call is a program error and propagates unchanged. *)
let rank_fit_failure reason =
  Option.is_some
    (Scanf.sscanf_opt reason "Ops dist: %d cells for %d ranks on axis %d%!"
       (fun _ _ _ -> ()))
  || Option.is_some
       (Scanf.sscanf_opt reason
          "Ops dist: axis %d chunk %d owns %d cells, fewer than the ghost depth %d%!"
          (fun _ _ _ _ -> ()))

let fit_ranks ~cmd ~ranks partition =
  try partition ()
  with Invalid_argument reason when rank_fit_failure reason ->
    Printf.eprintf "%s: option '--ranks': %d ranks do not fit this mesh (%s)\n\
                    Try '%s --help' for more information.\n%!"
      cmd ranks reason cmd;
    exit Cmdliner.Cmd.Exit.cli_error
