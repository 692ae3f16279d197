(* Sequential reference backend.

   This is the "generic implementation" of the paper: a plain loop over the
   iteration set, gathering and scattering per element.  It is the
   correctness oracle every other backend is tested against, and the
   human-readable debugging target the source-to-source generator also
   emits. *)

(* [compiled] comes from the plan cache (see [Plan]) or, on a rank, from the
   distributed runtime's rank-local compile. *)
let run compiled ~set_size ~kernel =
  let buffers = Exec_common.make_buffers compiled in
  Exec_common.run_range compiled buffers kernel ~lo:0 ~hi:set_size;
  if Exec_common.has_globals compiled then
    Exec_common.merge_globals compiled buffers
