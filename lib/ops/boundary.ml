(* Physical boundary conditions on the ghost ring (OPS's update_halo).

   CloverLeaf-style codes refresh their ghost cells after every phase with
   reflective boundaries: ghost values mirror interior values, with an
   optional sign flip for velocity components normal to the wall.  Reading
   and writing the same dataset across an offset is exactly the dependence
   [par_loop] forbids, so — like OPS itself — the library provides this as
   a built-in operation rather than a user kernel.

   Mirroring is centre-aware: cell-centred fields reflect about the cell
   interface (ghost -k <-> interior k-1), node-centred fields about the
   boundary node (ghost -k <-> interior k).  Axes are mirrored from the
   outermost inwards; each axis covers the interior of the axes below it
   and the whole stored extent (ghosts included) of the axes above it, so
   edges and corners come out consistent without communication. *)

open Types

type centering = Cell | Node

(* Mirror source index for ghost index [g] outside [0, size). *)
let mirror_low centering k = match centering with Cell -> k - 1 | Node -> k
let mirror_high centering size k =
  match centering with Cell -> size - k | Node -> size - 1 - k

(* Mirror [dat] in the storage addressed by [view].  [owned] is the box of
   points this storage owns (global numbering; a ghost cell is written only
   by its owner) and [stored] the box it holds, within the dataset's
   addressable box.  [signs]/[centers] are per axis. *)
let apply ~view ~(dat : dat) ~owned ~stored ~depth ~signs ~centers =
  if depth > dat.halo then invalid_arg "Boundary.mirror: depth exceeds ghost ring";
  for a = dat.dat_block.ndim - 1 downto 0 do
    let n = size dat a in
    let box = ref stored in
    for b = 0 to a - 1 do
      box :=
        with_axis !box b (max 0 (range_lo stored b)) (min (size dat b) (range_hi stored b))
    done;
    (* A ghost layer is its source layer shifted along [a]. *)
    let stride = match a with 0 -> view.vcol | 1 -> view.vrow | _ -> view.vplane in
    for k = 1 to depth do
      List.iter
        (fun (g, src) ->
          if g >= range_lo owned a && g < range_hi owned a then begin
            let r = with_axis !box a g (g + 1) and shift = (src - g) * stride in
            for z = r.zlo to r.zhi - 1 do
              for y = r.ylo to r.yhi - 1 do
                for x = r.xlo to r.xhi - 1 do
                  let i = vindex view ~x ~y ~z ~c:0 in
                  for c = i to i + dat.dim - 1 do
                    view.vdata.(c) <- signs.(a) *. view.vdata.(c + shift)
                  done
                done
              done
            done
          end)
        [ (-k, mirror_low centers.(a) k); (n - 1 + k, mirror_high centers.(a) n k) ]
    done
  done

let mirror ~depth ~signs ~centers dat =
  let all = addressable dat in
  apply ~view:(dat_view dat) ~dat ~owned:all ~stored:all ~depth ~signs ~centers
