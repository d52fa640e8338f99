(* One campaign on the default path, and the bitwise check of its
   output against the exhaustive reference. *)

module Pipeline = Mcdft_core.Pipeline
module Optimizer = Mcdft_core.Optimizer

(* What a campaign must reproduce exactly: a digest over the detect
   bits and the omega float bits, and both optimizer choices. *)
type verdict = { digest : Digest.t; choice_a : int list; choice_b : int list }

let verdict (r : Pipeline.t) (rep : Optimizer.report) =
  let m = r.Pipeline.matrix in
  let b = Buffer.create 65536 in
  Array.iter
    (Array.iter (fun d -> Buffer.add_char b (if d then '1' else '0')))
    m.Testability.Matrix.detect;
  Array.iter
    (Array.iter (fun w -> Buffer.add_int64_le b (Int64.bits_of_float w)))
    m.Testability.Matrix.omega;
  {
    digest = Digest.string (Buffer.contents b);
    choice_a = rep.Optimizer.choice_a.Optimizer.configs;
    choice_b = rep.Optimizer.choice_b.Optimizer.opamps;
  }

let run_one ?jobs (w : Workload.t) bench =
  let jobs = Option.value jobs ~default:w.Workload.jobs in
  Pipeline.run ~criterion:w.Workload.criterion ~points_per_decade:w.Workload.ppd
    ~jobs bench

(* The reference: the same netlists through the exhaustive path —
   no pruning, no certification, no adaptive refinement. Matrices are
   jobs-invariant, so it runs on two domains to save wall time; it is
   never timed. *)
let reference (w : Workload.t) =
  List.map
    (fun (inp : Workload.input) ->
      let r =
        Pipeline.run ~criterion:w.Workload.criterion
          ~points_per_decade:w.Workload.ppd ~jobs:2 ~prune:false
          ~certify:false ~adaptive:false inp.Workload.bench
      in
      verdict r (Pipeline.optimize r))
    w.Workload.inputs

(* Human-readable differences between a campaign and the reference;
   empty when the campaign is correct. *)
let mismatches ~(reference : verdict list) (got : verdict list) =
  List.concat
    (List.mapi
       (fun i (r, g) ->
         let bad what = [ Printf.sprintf "input %d: %s differs" i what ] in
         (if r.digest <> g.digest then bad "matrix digest" else [])
         @ (if r.choice_a <> g.choice_a then bad "choice A" else [])
         @ if r.choice_b <> g.choice_b then bad "choice B" else [])
       (List.combine reference got))
