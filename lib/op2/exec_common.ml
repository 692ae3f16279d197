(* Shared gather/scatter machinery of the OP2 backends.

   Every backend presents the user kernel with the same calling convention:
   one staging buffer per argument, gathered before the kernel runs and
   scattered back according to the access descriptor.  This mirrors the
   paper's generated wrappers (Fig 7), where user functions receive pointers
   prepared by the wrapper, and keeps kernels oblivious to layout (AoS/SoA),
   indirection and distribution.

   Arguments are "compiled" once per (loop, signature) pair into a flat
   executor: the dataset array, map table and layout strides are resolved
   up front and baked into one gather and one scatter closure per argument,
   so the per-element hot path is a straight indexed copy with no ADT
   dispatch.  The inner loops use unsafe indexing; bounds are guaranteed by
   declaration-time validation ([decl_map] range-checks every target,
   [decl_dat] fixes the array length) plus [validate_args] on the loop.
   The distributed backend passes resolvers that substitute rank-local
   arrays and map tables. *)

module Access = Am_core.Access
open Types

type compiled_arg =
  | C_dat of {
      data : float array;
      dim : int;
      layout : layout;
      n : int; (* elements in [data]; layout stride for SoA *)
      access : Access.t;
      map_values : int array; (* [||] for direct args *)
      arity : int;
      idx : int;
      indirect : bool;
      gather : float array -> int -> unit; (* staging buffer, element *)
      scatter : float array -> int -> unit;
    }
  | C_gbl of { user_buf : float array; access : Access.t }

type resolvers = {
  resolve_dat : dat -> float array * int; (* backing array and element count *)
  resolve_map : map_t -> int array;
}

let global_resolvers =
  {
    resolve_dat = (fun d -> (d.data, dat_n_elems d));
    resolve_map = (fun m -> m.values);
  }

(* Flat index of the element a compiled dat argument touches at iteration
   point [e] (the map lookup for indirect args). *)
let ignore2 _ _ = ()

(* Specialised gather: copies the [dim] components of the target element
   into the staging buffer.  Layout, indirection and the common [dim = 1]
   case are resolved here, once, instead of per element. *)
let build_gather ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect =
  match access with
  | Access.Inc ->
    if dim = 1 then fun buf _ -> Array.unsafe_set buf 0 0.0
    else fun buf _ -> Array.fill buf 0 dim 0.0
  | Access.Read | Access.Rw | Access.Write -> (
    (* Write also gathers: kernels receive the previous contents, as OP2's
       pointer-passing convention does. *)
    match (layout, indirect, dim) with
    | Aos, false, 1 ->
      fun buf e -> Array.unsafe_set buf 0 (Array.unsafe_get data e)
    | Aos, false, _ ->
      fun buf e ->
        let base = e * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data (base + d))
        done
    | Aos, true, 1 ->
      fun buf e ->
        Array.unsafe_set buf 0
          (Array.unsafe_get data (Array.unsafe_get map_values ((e * arity) + idx)))
    | Aos, true, _ ->
      fun buf e ->
        let base = Array.unsafe_get map_values ((e * arity) + idx) * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data (base + d))
        done
    | Soa, false, _ ->
      fun buf e ->
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data ((d * n) + e))
        done
    | Soa, true, _ ->
      fun buf e ->
        let elem = Array.unsafe_get map_values ((e * arity) + idx) in
        for d = 0 to dim - 1 do
          Array.unsafe_set buf d (Array.unsafe_get data ((d * n) + elem))
        done)
  | Access.Min | Access.Max -> invalid_arg "op2: Min/Max access on a dat argument"

let build_scatter ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect =
  let target =
    if indirect then fun e -> Array.unsafe_get map_values ((e * arity) + idx)
    else fun e -> e
  in
  match access with
  | Access.Read -> ignore2
  | Access.Write | Access.Rw -> (
    match (layout, dim) with
    | Aos, 1 -> fun buf e -> Array.unsafe_set data (target e) (Array.unsafe_get buf 0)
    | Aos, _ ->
      fun buf e ->
        let base = target e * dim in
        for d = 0 to dim - 1 do
          Array.unsafe_set data (base + d) (Array.unsafe_get buf d)
        done
    | Soa, _ ->
      fun buf e ->
        let elem = target e in
        for d = 0 to dim - 1 do
          Array.unsafe_set data ((d * n) + elem) (Array.unsafe_get buf d)
        done)
  | Access.Inc -> (
    match (layout, dim) with
    | Aos, 1 ->
      fun buf e ->
        let j = target e in
        Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf 0)
    | Aos, _ ->
      fun buf e ->
        let base = target e * dim in
        for d = 0 to dim - 1 do
          let j = base + d in
          Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf d)
        done
    | Soa, _ ->
      fun buf e ->
        let elem = target e in
        for d = 0 to dim - 1 do
          let j = (d * n) + elem in
          Array.unsafe_set data j (Array.unsafe_get data j +. Array.unsafe_get buf d)
        done)
  | Access.Min | Access.Max -> invalid_arg "op2: Min/Max access on a dat argument"

let compile_dat ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect =
  C_dat
    {
      data; dim; layout; n; access; map_values; arity; idx; indirect;
      gather =
        build_gather ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect;
      scatter =
        build_scatter ~data ~dim ~layout ~n ~access ~map_values ~arity ~idx ~indirect;
    }

let compile ?(resolvers = global_resolvers) args =
  let compile_one = function
    | Arg_dat { dat; map = None; access } ->
      let data, n = resolvers.resolve_dat dat in
      compile_dat ~data ~dim:dat.dim ~layout:dat.layout ~n ~access ~map_values:[||]
        ~arity:0 ~idx:0 ~indirect:false
    | Arg_dat { dat; map = Some (m, k); access } ->
      let data, n = resolvers.resolve_dat dat in
      compile_dat ~data ~dim:dat.dim ~layout:dat.layout ~n ~access
        ~map_values:(resolvers.resolve_map m) ~arity:m.arity ~idx:k ~indirect:true
    | Arg_gbl { buf; access; _ } -> C_gbl { user_buf = buf; access }
  in
  Array.of_list (List.map compile_one args)

(* A cached executor is only valid while the argument list still resolves to
   the same backing stores: [convert_layout] and the SoA conversion replace
   [dat.data] wholesale ([Op2.update] writes into it in place), and
   renumbering rewrites map tables.  Physical equality makes the check one
   pointer compare per argument. *)
let compiled_matches compiled args =
  Array.length compiled = List.length args
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
       (Array.to_list compiled) args

let has_globals compiled =
  Array.exists (function C_gbl _ -> true | C_dat _ -> false) compiled

(* Worker-local staging buffers: dat args get a [dim]-sized scratch, global
   args an accumulator initialised for their reduction. *)
let make_buffers compiled =
  Array.map
    (function
      | C_dat { dim; _ } -> Array.make dim 0.0
      | C_gbl { user_buf; access } -> (
        match access with
        | Access.Read | Access.Min | Access.Max -> Array.copy user_buf
        | Access.Inc -> Array.make (Array.length user_buf) 0.0
        | Access.Write | Access.Rw ->
          invalid_arg "op2: Write/Rw access on a global argument"))
    compiled

(* Fold one worker's global accumulators into the user buffers.  Callers
   serialise calls (sequential phase or post-join merge). *)
let merge_globals compiled buffers =
  Array.iteri
    (fun i c ->
      match c with
      | C_dat _ -> ()
      | C_gbl { user_buf; access } -> (
        let acc = buffers.(i) in
        match access with
        | Access.Read -> ()
        | Access.Inc ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- user_buf.(d) +. acc.(d)
          done
        | Access.Min ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- Float.min user_buf.(d) acc.(d)
          done
        | Access.Max ->
          for d = 0 to Array.length user_buf - 1 do
            user_buf.(d) <- Float.max user_buf.(d) acc.(d)
          done
        | Access.Write | Access.Rw -> assert false))
    compiled

(* Accumulate worker [src]'s global partials into worker [dst]'s (one level
   of the reduction tree); Inc/Min/Max are associative and commutative. *)
let combine_globals compiled dst src =
  Array.iteri
    (fun i c ->
      match c with
      | C_dat _ -> ()
      | C_gbl { access; _ } -> (
        let a = dst.(i) and b = src.(i) in
        match access with
        | Access.Read -> ()
        | Access.Inc ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- a.(d) +. b.(d)
          done
        | Access.Min ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- Float.min a.(d) b.(d)
          done
        | Access.Max ->
          for d = 0 to Array.length a - 1 do
            a.(d) <- Float.max a.(d) b.(d)
          done
        | Access.Write | Access.Rw -> assert false))
    compiled

(* Pairwise tree reduction of per-worker accumulator sets into the user
   buffers (the pooled replacement for the per-chunk mutex merge). *)
let merge_worker_globals compiled states =
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
        combine_globals compiled arr.(i) arr.(half + i)
      done;
      n := half
    done;
    merge_globals compiled arr.(0);
    if traced then Am_obs.Obs.end_span ()

let target_elem c e =
  match c with
  | C_dat { indirect = true; map_values; arity; idx; _ } ->
    map_values.((e * arity) + idx)
  | C_dat { indirect = false; _ } -> e
  | C_gbl _ -> -1

let gather compiled buffers e =
  for i = 0 to Array.length compiled - 1 do
    match Array.unsafe_get compiled i with
    | C_dat { gather; _ } -> gather (Array.unsafe_get buffers i) e
    | C_gbl _ -> ()
  done

let scatter compiled buffers e =
  for i = 0 to Array.length compiled - 1 do
    match Array.unsafe_get compiled i with
    | C_dat { scatter; _ } -> scatter (Array.unsafe_get buffers i) e
    | C_gbl _ -> ()
  done

(* Run one element through gather -> kernel -> scatter. *)
let run_element compiled buffers kernel e =
  gather compiled buffers e;
  kernel buffers;
  scatter compiled buffers e
