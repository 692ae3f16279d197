(* Public facade of the structured-mesh library for 3D blocks: a typed
   shim over the dimension-generic [Facade], whose three-axis types it
   uses directly (the paper: blocks have "a number of dimensions (1D, 2D,
   3D, etc.)"). *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg
type range = Types.range = {
  xlo : int;
  xhi : int;
  ylo : int;
  yhi : int;
  zlo : int;
  zhi : int;
}
type stencil = Types.stencil

let stencil_point = Types.stencil_point

(* 7-point Laplacian stencil: centre, ±x, ±y, ±z. *)
let stencil_7pt : stencil =
  [| (0, 0, 0); (-1, 0, 0); (1, 0, 0); (0, -1, 0); (0, 1, 0); (0, 0, -1); (0, 0, 1) |]

type backend = Facade.backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check

type ctx = Facade.ctx

let create ?backend () = Facade.create ~ndim:3 ?backend ()
let set_backend = Facade.set_backend
let backend = Facade.backend
let profile = Facade.profile
let trace = Facade.trace
let decl_block = Facade.decl_block

let decl_dat ctx ~name ~block ~xsize ~ysize ~zsize ?halo ?dim () =
  Facade.decl_dat ctx ~name ~block ~xsize ~ysize ~zsize ?halo ?dim ()

let blocks = Facade.blocks
let dats = Facade.dats
let arg_dat dat s access = Facade.arg_dat dat s access
let arg_dat_restrict = Facade.arg_dat_restrict
let arg_dat_prolong = Facade.arg_dat_prolong
let arg_gbl = Facade.arg_gbl ~ndim:3
let arg_idx = Types.Arg_idx 3
let interior = Types.interior
let get = Types.get
let set = Types.set
let fetch_interior = Facade.fetch_interior
let init = Facade.init

let partition ctx ~n_ranks ~ref_zsize =
  Facade.partition ctx ~procs:[| 1; 1; n_ranks |] ~refs:[| 1; 1; ref_zsize |]

(* Pencil (y x z) decomposition over py * pz ranks; x stays whole. *)
let partition_pencil ctx ~py ~pz ~ref_ysize ~ref_zsize =
  Facade.partition ctx ~procs:[| 1; py; pz |] ~refs:[| 1; ref_ysize; ref_zsize |]

type rank_execution = Dist.rank_exec = Rank_seq | Rank_shared of Am_taskpool.Pool.t

let set_rank_execution = Facade.set_rank_execution

type comm_mode = Facade.comm_mode = Blocking | Overlap

let set_comm_mode = Facade.set_comm_mode
let comm_mode = Facade.comm_mode
let comm_stats = Facade.comm_stats
let set_fault_injector = Facade.set_fault_injector
let fault_injector = Facade.fault_injector

type halo = Multiblock.halo
type orientation = Multiblock.orientation

let identity_orientation = Multiblock.identity_orientation
let decl_halo = Facade.decl_halo
let halo_transfer = Facade.halo_transfer

type centering = Boundary.centering = Cell | Node

let mirror_halo ctx ?(depth = 2) ?(sign_x = 1.0) ?(sign_y = 1.0) ?(sign_z = 1.0)
    ?(center_x = Cell) ?(center_y = Cell) ?(center_z = Cell) dat =
  Facade.mirror_halo ctx ~depth ~signs:[| sign_x; sign_y; sign_z |]
    ~centers:[| center_x; center_y; center_z |] dat

type handle = Facade.handle

let make_handle = Facade.make_handle
let par_loop = Facade.par_loop
let set_infer = Facade.set_infer
let infer_enabled = Facade.infer_enabled
let footprints = Facade.footprints
let enable_checkpointing = Facade.enable_checkpointing
let request_checkpoint = Facade.request_checkpoint
let checkpoint_session = Facade.checkpoint_session
let checkpoint_to_file = Facade.checkpoint_to_file
let recover_from_file = Facade.recover_from_file
