(* Public facade of the multi-block structured-mesh active library (OPS)
   for 2D blocks: a typed shim over the dimension-generic [Facade], which
   converts (x, y) ranges, stencils and callbacks to the three-axis forms
   (z = 0) and nothing else.

   Usage:

   {[
     let ctx = Ops.create () in
     let grid = Ops.decl_block ctx ~name:"grid" in
     let density =
       Ops.decl_dat ctx ~name:"density" ~block:grid ~xsize:nx ~ysize:ny ()
     in
     ...
     Ops.par_loop ctx ~name:"ideal_gas" grid (Ops.interior density)
       [ Ops.arg_dat density Ops.stencil_point Access.Read;
         Ops.arg_dat pressure Ops.stencil_point Access.Write ]
       (fun a -> a.(1).(0) <- (gamma -. 1.0) *. a.(0).(0) *. energy)
   ]} *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg
type range = { xlo : int; xhi : int; ylo : int; yhi : int }
type stencil = (int * int) array

let stencil_point : stencil = [| (0, 0) |]

(* Common 2D stencils, named as OPS applications name them. *)
let stencil_2d_00 = stencil_point
let stencil_2d_5pt : stencil = [| (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1) |]
let stencil_2d_plus1x : stencil = [| (0, 0); (1, 0) |]
let stencil_2d_plus1y : stencil = [| (0, 0); (0, 1) |]
let stencil_2d_minus1x : stencil = [| (0, 0); (-1, 0) |]
let stencil_2d_minus1y : stencil = [| (0, 0); (0, -1) |]
let stencil_2d_quad : stencil = [| (0, 0); (1, 0); (0, 1); (1, 1) |]
let stencil_offsets (s : stencil) = s

let to_stencil (s : stencil) = Array.map (fun (dx, dy) -> (dx, dy, 0)) s
let to_range r =
  { Types.xlo = r.xlo; xhi = r.xhi; ylo = r.ylo; yhi = r.yhi; zlo = 0; zhi = 1 }

type backend = Facade.backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check

type ctx = Facade.ctx

let create ?backend () = Facade.create ~ndim:2 ?backend ()
let set_backend = Facade.set_backend
let backend = Facade.backend
let profile = Facade.profile
let trace = Facade.trace
let decl_block = Facade.decl_block

let decl_dat ctx ~name ~block ~xsize ~ysize ?halo ?dim () =
  Facade.decl_dat ctx ~name ~block ~xsize ~ysize ?halo ?dim ()

let blocks = Facade.blocks
let dats = Facade.dats
let arg_dat dat s access = Facade.arg_dat dat (to_stencil s) access
let arg_dat_restrict dat s = Facade.arg_dat_restrict dat (to_stencil s)
let arg_dat_prolong dat s = Facade.arg_dat_prolong dat (to_stencil s)
let arg_gbl = Facade.arg_gbl ~ndim:2
let arg_idx = Types.Arg_idx 2
let interior (d : dat) = { xlo = 0; xhi = d.Types.xsize; ylo = 0; yhi = d.Types.ysize }
let fill = Types.fill
let get d ~x ~y ~c = Types.get d ~x ~y ~z:0 ~c
let set d ~x ~y ~c v = Types.set d ~x ~y ~z:0 ~c v
let fetch_interior = Facade.fetch_interior
let init ctx dat f = Facade.init ctx dat (fun x y _ c -> f x y c)

let partition ctx ~n_ranks ~ref_ysize =
  Facade.partition ctx ~procs:[| 1; n_ranks; 1 |] ~refs:[| 1; ref_ysize; 1 |]

let partition_grid ctx ~px ~py ~ref_xsize ~ref_ysize =
  Facade.partition ctx ~procs:[| px; py; 1 |] ~refs:[| ref_xsize; ref_ysize; 1 |]

type rank_execution = Dist.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let set_rank_execution = Facade.set_rank_execution

type halo_policy = Facade.halo_policy = On_demand | Eager

let set_halo_policy = Facade.set_halo_policy

type comm_mode = Facade.comm_mode = Blocking | Overlap

let set_comm_mode = Facade.set_comm_mode
let comm_mode = Facade.comm_mode
let comm_stats = Facade.comm_stats
let set_fault_injector = Facade.set_fault_injector
let fault_injector = Facade.fault_injector

type halo = Multiblock.halo
type orientation = Multiblock.orientation

let identity_orientation = Multiblock.identity_orientation

let decl_halo ctx ~name ~src ~dst ~src_range ~dst_range ?orientation () =
  Facade.decl_halo ctx ~name ~src ~dst ~src_range:(to_range src_range)
    ~dst_range:(to_range dst_range) ?orientation ()

let halo_transfer = Facade.halo_transfer

type centering = Boundary.centering = Cell | Node

let mirror_halo ctx ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0) ?(center_x = Cell)
    ?(center_y = Cell) dat =
  Facade.mirror_halo ctx ~depth ~signs:[| sign_x; sign_y; 1.0 |]
    ~centers:[| center_x; center_y; Cell |] dat

type handle = Facade.handle

let make_handle = Facade.make_handle

let par_loop ctx ~name ?info ?handle block range args kernel =
  Facade.par_loop ctx ~name ?info ?handle block (to_range range) args kernel

let set_infer = Facade.set_infer
let infer_enabled = Facade.infer_enabled
let footprints = Facade.footprints
let enable_checkpointing = Facade.enable_checkpointing
let request_checkpoint = Facade.request_checkpoint
let checkpoint_session = Facade.checkpoint_session
let checkpoint_to_file = Facade.checkpoint_to_file
let recover_from_file = Facade.recover_from_file
