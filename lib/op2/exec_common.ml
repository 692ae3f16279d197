(* Shared staging machinery of the OP2 backends.

   Every backend presents the user kernel with the same calling convention:
   one staging buffer per argument, gathered before the kernel runs and
   scattered back according to the access descriptor.  This mirrors the
   paper's generated wrappers (Fig 7), where user functions receive pointers
   prepared by the wrapper, and keeps kernels oblivious to layout (AoS/SoA),
   indirection and distribution.

   Arguments are "compiled" once per (loop, signature) pair into flat
   tables: per dataset argument the backing array, dimension, access kind,
   map row (table, arity, index) and two strides — an element stride and a
   component stride, [dim]/1 for AoS and 1/[n] for SoA — so component [d]
   of element [elem] lives at [elem * estride + d * cstride] in either
   layout.  One closure-free runner walks the tables: it gathers every
   dataset argument in argument order, calls the kernel, then scatters only
   the written arguments, in argument order.  The hot loop makes no
   indirect call besides the kernel and allocates nothing.  It uses unsafe
   indexing; bounds are guaranteed by declaration-time validation
   ([decl_map] range-checks every target, [decl_dat] fixes the array
   length) plus [validate_args] on the loop.  The distributed backend
   passes resolvers that substitute rank-local arrays and map tables. *)

module Access = Am_core.Access
open Types

type dat_arg = {
  slot : int; (* position in the argument list and the staging buffers *)
  data : float array;
  dim : int;
  access : Access.t;
  inc : bool; (* staged from zero and added back *)
  layout : layout;
  indirect : bool;
  map_values : int array; (* [||] for direct args *)
  arity : int;
  idx : int;
  estride : int; (* element stride: [dim] (AoS) or 1 (SoA) *)
  cstride : int; (* component stride: 1 (AoS) or [n] (SoA) *)
}

type compiled_arg =
  | C_dat of dat_arg
  | C_gbl of { user_buf : float array; access : Access.t }

type t = {
  args : compiled_arg array; (* argument order *)
  dats : dat_arg array; (* every dataset argument, in argument order *)
  written : dat_arg array; (* the written ones, in argument order *)
}

let of_args args =
  let dats =
    Array.of_list
      (List.filter_map (function C_dat a -> Some a | C_gbl _ -> None) (Array.to_list args))
  in
  let written =
    Array.of_list (List.filter (fun a -> Access.writes a.access) (Array.to_list dats))
  in
  { args; dats; written }

type resolvers = {
  resolve_dat : dat -> float array * int; (* backing array and element count *)
  resolve_map : map_t -> int array;
}

let global_resolvers =
  {
    resolve_dat = (fun d -> (d.data, dat_n_elems d));
    resolve_map = (fun m -> m.values);
  }

let compile ?(resolvers = global_resolvers) args =
  let compile_one slot = function
    | Arg_dat { dat; map; access } ->
      (match access with
      | Access.Min | Access.Max -> invalid_arg "op2: Min/Max access on a dat argument"
      | Access.Read | Access.Write | Access.Rw | Access.Inc -> ());
      let data, n = resolvers.resolve_dat dat in
      let map_values, arity, idx =
        match map with
        | None -> ([||], 0, 0)
        | Some (m, k) -> (resolvers.resolve_map m, m.arity, k)
      in
      let estride, cstride = match dat.layout with Aos -> (dat.dim, 1) | Soa -> (1, n) in
      C_dat
        { slot; data; dim = dat.dim; access; inc = access = Access.Inc; layout = dat.layout;
          indirect = map <> None; map_values; arity; idx; estride; cstride }
    | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
  in
  of_args (Array.of_list (List.mapi compile_one args))

(* A cached executor is only valid while the argument list still resolves to
   the same backing stores: [convert_layout] and the SoA conversion replace
   [dat.data] wholesale ([Op2.update] writes into it in place), and
   renumbering rewrites map tables.  Physical equality makes the check one
   pointer compare per argument. *)
let compiled_matches t args =
  Array.length t.args = List.length args
  && List.for_all2
       (fun c arg ->
         match (c, arg) with
         | C_dat cd, Arg_dat { dat; map; access } ->
           cd.access = access && cd.data == dat.data && cd.layout = dat.layout
           && (match map with
              | None -> not cd.indirect
              | Some (m, k) -> cd.indirect && cd.map_values == m.values && cd.idx = k)
         | C_gbl cg, Arg_gbl { buf; access; _ } ->
           cg.user_buf == buf && cg.access = access
         | (C_dat _ | C_gbl _), _ -> false)
       (Array.to_list t.args) args

let has_globals t = Array.exists (function C_gbl _ -> true | C_dat _ -> false) t.args

(* Worker-local staging buffers: dat args get a [dim]-sized scratch, global
   args an accumulator initialised for their reduction. *)
let make_buffers t =
  Array.map
    (function
      | C_dat { dim; _ } -> Array.make dim 0.0
      | C_gbl { user_buf; access } -> (
        match access with
        | Access.Read | Access.Min | Access.Max -> Array.copy user_buf
        | Access.Inc -> Array.make (Array.length user_buf) 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "op2: Write/Rw access on a global argument"))
    t.args

(* Fold reduction partials [src] into [dst] per the access mode
   (Inc/Min/Max are associative and commutative). *)
let reduce_into access dst src =
  for d = 0 to Array.length dst - 1 do
    match access with
    | Access.Inc -> dst.(d) <- dst.(d) +. src.(d)
    | Access.Min -> dst.(d) <- Float.min dst.(d) src.(d)
    | Access.Max -> dst.(d) <- Float.max dst.(d) src.(d)
    | Access.Read | Access.Write | Access.Rw -> ()
  done

(* Fold one worker's global accumulators into the user buffers.  Callers
   serialise calls (sequential phase or post-join merge). *)
let merge_globals t buffers =
  Array.iteri
    (fun i c ->
      match c with
      | C_gbl { user_buf; access } -> reduce_into access user_buf buffers.(i)
      | C_dat _ -> ())
    t.args

(* Pairwise tree reduction of per-worker accumulator sets into the user
   buffers (the pooled replacement for the per-chunk mutex merge). *)
let merge_worker_globals t states =
  match states with
  | [] -> ()
  | states ->
    let traced = Am_obs.Obs.tracing () in
    if traced then Am_obs.Obs.begin_span ~cat:Am_obs.Tracer.Reduce "merge_globals";
    let arr = Array.of_list states in
    let n = ref (Array.length arr) in
    while !n > 1 do
      let half = (!n + 1) / 2 in
      for i = 0 to !n - half - 1 do
        Array.iteri
          (fun k c ->
            match c with
            | C_gbl { access; _ } -> reduce_into access arr.(i).(k) arr.(half + i).(k)
            | C_dat _ -> ())
          t.args
      done;
      n := half
    done;
    merge_globals t arr.(0);
    if traced then Am_obs.Obs.end_span ()

(* ---- The runner ------------------------------------------------------ *)

(* Element of the dataset an argument touches at iteration point [e]. *)
let[@inline] target a e =
  if a.indirect then Array.unsafe_get a.map_values ((e * a.arity) + a.idx) else e

(* Stage every dataset argument of element [e], in argument order.  Write
   also gathers: kernels receive the previous contents, as OP2's
   pointer-passing convention does. *)
let gather t buffers e =
  let dats = t.dats in
  for i = 0 to Array.length dats - 1 do
    let a = Array.unsafe_get dats i in
    let buf = Array.unsafe_get buffers a.slot in
    if a.inc then
      for d = 0 to a.dim - 1 do
        Array.unsafe_set buf d 0.0
      done
    else begin
      let base = target a e * a.estride and data = a.data and cs = a.cstride in
      for d = 0 to a.dim - 1 do
        Array.unsafe_set buf d (Array.unsafe_get data (base + (d * cs)))
      done
    end
  done

(* Write the written arguments of element [e] back, in argument order. *)
let scatter t buffers e =
  let written = t.written in
  for i = 0 to Array.length written - 1 do
    let a = Array.unsafe_get written i in
    let buf = Array.unsafe_get buffers a.slot in
    let base = target a e * a.estride and data = a.data and cs = a.cstride in
    if a.inc then
      for d = 0 to a.dim - 1 do
        let j = base + (d * cs) in
        Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf d)
      done
    else
      for d = 0 to a.dim - 1 do
        Array.unsafe_set data (base + (d * cs)) (Array.unsafe_get buf d)
      done
  done

(* Run one element through gather -> kernel -> scatter. *)
let run_element t buffers kernel e =
  gather t buffers e;
  kernel buffers;
  scatter t buffers e

let run_range t buffers kernel ~lo ~hi =
  for e = lo to hi - 1 do
    run_element t buffers kernel e
  done

let run_elems t buffers kernel elems =
  for k = 0 to Array.length elems - 1 do
    run_element t buffers kernel (Array.unsafe_get elems k)
  done
