(* Host facts and host ceilings.

   Facts (core counts, OCaml version, cache sizes) are printed with every
   run so figures from different machines can be told apart.  Ceilings are
   measured bandwidths and call costs that the per-layer metrics use as
   denominators; they are measured, never modelled.  Cache sizes come from
   the cpu0 cache descriptions under /sys; a size the host does not expose
   is reported as 0. *)

type facts = {
  nproc : int;
  recommended_domains : int;
  ocaml_version : string;
  l1d_bytes : int;
  l2_bytes : int;
  l3_bytes : int;
}

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    line

(* "48K", "2048K", "300M" -> bytes. *)
let parse_size s =
  let n = String.length s in
  if n = 0 then 0
  else
    let mult, digits =
      match s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with Some v -> v * mult | None -> 0

let cache_bytes ~level ~data =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let rec scan i acc =
    let base = Printf.sprintf "%s/index%d" dir i in
    match read_line (base ^ "/level") with
    | None -> acc
    | Some l ->
      let typ = Option.value ~default:"" (read_line (base ^ "/type")) in
      let wanted =
        int_of_string_opt l = Some level && ((not data) || typ = "Data" || typ = "Unified")
      in
      let size =
        if wanted then Option.fold ~none:0 ~some:parse_size (read_line (base ^ "/size"))
        else 0
      in
      scan (i + 1) (max acc size)
  in
  scan 0 0

let nproc () =
  (* Online CPUs; the runtime's recommendation is reported separately. *)
  match read_line "/sys/devices/system/cpu/online" with
  | Some s ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' part with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> acc + (b - a + 1)
          | _ -> acc)
        | [ a ] -> if int_of_string_opt a <> None then acc + 1 else acc
        | _ -> acc)
      0 (String.split_on_char ',' s)
  | None -> Domain.recommended_domain_count ()

let facts () =
  {
    nproc = nproc ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    l1d_bytes = cache_bytes ~level:1 ~data:true;
    l2_bytes = cache_bytes ~level:2 ~data:true;
    l3_bytes = cache_bytes ~level:3 ~data:true;
  }

(* Domains a workload may use: at most two, and never more than the host
   recommends. *)
let max_domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

type ceilings = {
  copy_gbs : float;
  triad_gbs : float;
  gather_gbs : float;
  closure_call_ns : float;
}

let now = Unix.gettimeofday

(* Best of [reps] timings: a ceiling is the fastest the host managed. *)
let best reps f =
  let b = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    b := Float.min !b (now () -. t0)
  done;
  !b

(* [n] floats per array.  The arrays exceed L2 but not the L3 most hosts
   report; the run budget has no room for the four-times-LLC rule. *)
let measure_ceilings ?(n = 4 * 1024 * 1024) ?(reps = 5) () =
  let a = Array.make n 1.0 and b = Array.make n 2.0 and c = Array.make n 3.0 in
  let idx = Array.init n (fun i -> i) in
  let rng = Am_util.Prng.create 7 in
  Am_util.Prng.shuffle rng idx;
  let fn = float_of_int n in
  let copy_s =
    best reps (fun () ->
        for i = 0 to n - 1 do
          Array.unsafe_set b i (Array.unsafe_get a i)
        done)
  in
  let triad_s =
    best reps (fun () ->
        for i = 0 to n - 1 do
          Array.unsafe_set a i (Array.unsafe_get b i +. (3.0 *. Array.unsafe_get c i))
        done)
  in
  let gather_s =
    best reps (fun () ->
        for i = 0 to n - 1 do
          Array.unsafe_set a i (Array.unsafe_get b (Array.unsafe_get idx i))
        done)
  in
  (* A kernel-shaped closure over one staging buffer, called through an
     opaque reference so the call cannot be inlined. *)
  let buf = [| [| 0.0 |] |] in
  let k =
    Sys.opaque_identity (fun (args : float array array) -> args.(0).(0) <- args.(0).(0) +. 1.0)
  in
  let calls = 2 * n in
  let call_s =
    best reps (fun () ->
        for _ = 1 to calls do
          (Sys.opaque_identity k) buf
        done)
  in
  ignore (Sys.opaque_identity (a, b, c));
  {
    copy_gbs = 16.0 *. fn /. copy_s /. 1e9;
    triad_gbs = 24.0 *. fn /. triad_s /. 1e9;
    (* index + gathered value + stored value *)
    gather_gbs = 24.0 *. fn /. gather_s /. 1e9;
    closure_call_ns = call_s /. float_of_int calls *. 1e9;
  }
