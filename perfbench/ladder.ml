(* The per-loop ladder: the loops of a framework step, each split into
   measured rungs.

   - [full]: the loop through [par_loop] with the application's kernel.
   - [dispatch]: the same [par_loop] arguments with a no-op kernel, so
     validation, plan lookup, staging (gather/scatter) and the kernel call
     remain and the arithmetic goes.
   - [kernel]: the application's kernel called once per element over
     staging buffers captured from a real invocation, so gather, scatter
     and dispatch go and the arithmetic remains.
   - [hand]: the hand-coded loop, where the hand code has one that does
     exactly this loop's work; otherwise the rung is not measured.

   [full = kernel + dispatch + residual]: the residual is printed, never
   folded into a rung.  A rung runs the whole step's sequence of loops in
   the application's order, so each loop finds the caches the loops before
   it left, as in a real step.  Loops may change the application state, so
   the ladder runs only after the lockstep correctness check has finished. *)

type loop = {
  name : string;
  covers : string list;  (** the application's profile names for this loop *)
  run : (float array array -> unit) -> unit;
      (** one invocation of the loop's [par_loop] with the given kernel *)
  kernel : float array array -> unit;
  hand : (unit -> unit) option;
}

type row = {
  r_name : string;
  r_per_step : int;
  hand_s : float option;  (** per step; [None]: not measured *)
  kernel_s : float;
  dispatch_s : float;
  full_s : float;
}

let now = Unix.gettimeofday

let noop (_ : float array array) = ()

(* Buffers captured per loop: the first [block] element invocations, deep
   copied, and the total element count of one invocation. *)
let capture ?(block = 1024) l =
  let staged = ref [] and kept = ref 0 and n = ref 0 in
  l.run (fun args ->
      incr n;
      if !kept < block then begin
        staged := Array.map Array.copy args :: !staged;
        incr kept
      end;
      l.kernel args);
  (Array.of_list (List.rev !staged), !n)

(* [n] kernel calls cycling over the captured buffers. *)
let run_staged kernel staged n =
  let b = Array.length staged in
  if b > 0 then begin
    let i = ref 0 in
    while !i < n do
      let m = min b (n - !i) in
      for j = 0 to m - 1 do
        kernel (Array.unsafe_get staged j)
      done;
      i := !i + m
    done
  end

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let median xs = Am_util.Stats.median (Array.of_list xs)

let span name f = Am_obs.Obs.span ~cat:Am_obs.Tracer.Loop name f

(* [sequence] lists the loops of one step in order, repeats included.
   After one warm-up of each [par_loop] form and the capture per loop,
   [reps] rounds each time one whole application step ([step]) and then
   every rung over the sequence, with the rung order rotated between
   rounds, so the step and the rungs sample the same stretch of time.
   A loop's rung time per round sums its occurrences; rows carry the
   medians over rounds.  Returns the rows and the median step time. *)
let measure ~reps ~step sequence =
  let loops = List.sort_uniq (fun a b -> compare a.name b.name) sequence in
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l.name i) loops;
  let staged =
    Array.of_list
      (List.map
         (fun l ->
           l.run l.kernel;
           l.run noop;
           capture l)
         loops)
  in
  let n_loops = List.length loops in
  let samples = Array.init n_loops (fun _ -> Array.make 4 []) in
  let steps = ref [] in
  let rung i l =
    match i with
    | 0 -> Some ("full", fun () -> l.run l.kernel)
    | 1 -> Some ("dispatch", fun () -> l.run noop)
    | 2 ->
      let bufs, n = staged.(Hashtbl.find index l.name) in
      Some ("kernel", fun () -> run_staged l.kernel bufs n)
    | _ -> Option.map (fun h -> ("hand", h)) l.hand
  in
  for r = 0 to reps - 1 do
    steps := span "bench.ladder.step" (fun () -> time step) :: !steps;
    for k = 0 to 3 do
      let i = (r + k) mod 4 in
      let acc = Array.make n_loops 0.0 in
      List.iter
        (fun l ->
          match rung i l with
          | Some (name, f) ->
            let j = Hashtbl.find index l.name in
            let label = Printf.sprintf "bench.ladder.%s.%s" name l.name in
            acc.(j) <- acc.(j) +. span label (fun () -> time f)
          | None -> ())
        sequence;
      List.iteri
        (fun j l -> if i < 3 || l.hand <> None then samples.(j).(i) <- acc.(j) :: samples.(j).(i))
        loops
    done
  done;
  let rows =
    List.mapi
      (fun j l ->
        let med i = median samples.(j).(i) in
        {
          r_name = l.name;
          r_per_step = List.length (List.filter (fun x -> x.name = l.name) sequence);
          hand_s = (if l.hand = None then None else Some (med 3));
          kernel_s = med 2;
          dispatch_s = med 1;
          full_s = med 0;
        })
      loops
  in
  (rows, median !steps)

let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows

let print_rows rows =
  let opt = function Some v -> Printf.sprintf "%10.6f" v | None -> "not measured" in
  Printf.printf "ladder (seconds per step)\n";
  Printf.printf "  %-14s %5s %12s %10s %10s %10s %10s\n" "loop" "calls" "hand" "kernel"
    "dispatch" "full" "residual";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %5d %12s %10.6f %10.6f %10.6f %10.6f\n" r.r_name r.r_per_step
        (opt r.hand_s) r.kernel_s r.dispatch_s r.full_s
        (r.full_s -. r.kernel_s -. r.dispatch_s))
    rows
