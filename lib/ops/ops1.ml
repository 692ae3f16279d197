(* Public facade of the structured-mesh library for 1D blocks: a typed
   shim over the dimension-generic [Facade], which converts x intervals,
   stencils and callbacks to the three-axis forms (y = z = 0) and nothing
   else. *)

module Access = Am_core.Access
module Descr = Am_core.Descr
module Profile = Am_core.Profile
module Trace = Am_core.Trace

type block = Types.block
type dat = Types.dat
type arg = Types.arg
type range = { xlo : int; xhi : int }
type stencil = int array

let stencil_point : stencil = [| 0 |]

(* 3-point Laplacian stencil: centre, -x, +x. *)
let stencil_3pt : stencil = [| 0; -1; 1 |]

let to_range r = { Types.xlo = r.xlo; xhi = r.xhi; ylo = 0; yhi = 1; zlo = 0; zhi = 1 }

type backend = Facade.backend =
  | Seq
  | Shared of { pool : Am_taskpool.Pool.t }
  | Cuda_sim of Exec.cuda_config
  | Check

type ctx = Facade.ctx

let create ?backend () = Facade.create ~ndim:1 ?backend ()
let set_backend = Facade.set_backend
let backend = Facade.backend
let profile = Facade.profile
let trace = Facade.trace
let decl_block = Facade.decl_block
let decl_dat ctx ~name ~block ~xsize ?halo ?dim () =
  Facade.decl_dat ctx ~name ~block ~xsize ?halo ?dim ()

let blocks = Facade.blocks
let dats = Facade.dats
let arg_dat dat (s : stencil) access =
  Facade.arg_dat dat (Array.map (fun dx -> (dx, 0, 0)) s) access

let arg_gbl = Facade.arg_gbl ~ndim:1
let arg_idx = Types.Arg_idx 1
let interior (d : dat) = { xlo = 0; xhi = d.Types.xsize }
let get d ~x ~c = Types.get d ~x ~y:0 ~z:0 ~c
let set d ~x ~c v = Types.set d ~x ~y:0 ~z:0 ~c v
let fetch_interior = Facade.fetch_interior
let init ctx dat f = Facade.init ctx dat (fun x _ _ c -> f x c)

let partition ctx ~n_ranks ~ref_xsize =
  Facade.partition ctx ~procs:[| n_ranks; 1; 1 |] ~refs:[| ref_xsize; 1; 1 |]

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

type centering = Boundary.centering = Cell | Node

let mirror_halo ctx ?(depth = 2) ?(sign = 1.0) ?(center = Cell) dat =
  Facade.mirror_halo ctx ~depth ~signs:[| sign; 1.0; 1.0 |]
    ~centers:[| center; Cell; Cell |] dat

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
