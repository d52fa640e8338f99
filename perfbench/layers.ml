(* The traced per-layer profile. Each layer is timed around a call into
   its public functions on the workload's own inputs, and counted from
   Obs.Metrics counter deltas around the same calls. The campaign steps
   are replayed exactly as Pipeline.run and Pipeline.optimize take them,
   so the layer times add up to a campaign and whatever they miss shows
   as core.unaccounted_s. *)

module P = Mcdft_core.Pipeline
module M = Testability.Matrix
module D = Testability.Detect
module F = Testability.Fastsim
module B = Circuits.Benchmark
module T = Multiconfig.Transform

(* Accumulated per-layer metrics, summed over the workload's inputs. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let add name v = Hashtbl.replace acc name (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))
let get name = Option.value ~default:0.0 (Hashtbl.find_opt acc name)

(* [f] inside a span, with a function giving each counter's increase
   across the call. *)
let counted name f =
  let before = Obs.Metrics.snapshot () in
  let v = Span.with_ name f in
  let after = Obs.Metrics.snapshot () in
  (v, fun c -> Obs.Metrics.counter after c - Obs.Metrics.counter before c)

let add_count name d = add name (float_of_int (d name))

type views = {
  bench : B.t;
  probe : D.probe;
  dft : T.t;
  grid : Testability.Grid.t;
  faults : Fault.t list;
  views : M.view list;
  groups : int list list;
  rep_views : M.view list;
}

(* Validation, transform and pruning, as Pipeline.run does them. *)
let views (w : Workload.t) (bench : B.t) =
  let netlist = bench.B.netlist in
  Span.with_ "circuit.validate" (fun () -> Circuit.Validate.check_exn netlist);
  let probe = { D.source = bench.B.source; output = bench.B.output } in
  let dft, views =
    Span.with_ "multiconfig.transform" @@ fun () ->
    let dft = T.make ~source:bench.B.source ~output:bench.B.output netlist in
    ( dft,
      List.map
        (fun c ->
          {
            M.label = Multiconfig.Configuration.label c;
            netlist = T.emulate dft c;
            probe;
          })
        (T.test_configurations dft) )
  in
  let grid =
    Testability.Grid.around ~points_per_decade:w.Workload.ppd
      ~center_hz:bench.B.center_hz ()
  in
  let faults = Fault.deviation_faults netlist in
  let groups =
    Span.with_ "analysis.prune" @@ fun () ->
    Analysis.Lint.equivalence_groups
      ~sources:(Mna.Assemble.Only bench.B.source)
      ~locked_elements:
        (List.sort_uniq String.compare (List.map (fun f -> f.Fault.element) faults))
      (List.map (fun v -> v.M.netlist) views)
  in
  let arr = Array.of_list views in
  let rep_views = List.map (fun g -> arr.(List.hd g)) groups in
  { bench; probe; dft; grid; faults; views; groups; rep_views }

(* MNA dimension and back end of every representative view, from a
   one-frequency engine (neither depends on the grid). *)
let engines v =
  List.map
    (fun (view : M.view) ->
      let sim =
        F.create ~source:v.probe.D.source ~output:v.probe.D.output
          ~freqs_hz:[| v.bench.B.center_hz |] view.M.netlist
      in
      (F.dim sim, F.uses_sparse sim))
    v.rep_views

(* The rest of Pipeline.run (certify, adaptive build, row expansion)
   and Pipeline.optimize, each in its span. Returns the campaign's
   verdict for the correctness check, and the certify cube. *)
let finish (w : Workload.t) v =
  let certification =
    Span.with_ "analysis.certify" @@ fun () ->
    match w.Workload.criterion with
    | D.Fixed_tolerance eps when eps > 0.0 ->
        let specs =
          List.map
            (fun (view : M.view) ->
              {
                Analysis.Certify.label = view.M.label;
                netlist = view.M.netlist;
                source = v.probe.D.source;
                output = v.probe.D.output;
              })
            v.rep_views
        in
        Some
          (Analysis.Certify.certify ~eps
             ~freqs_hz:(Testability.Grid.freqs_hz v.grid)
             specs v.faults)
    | _ -> None
  in
  let certified = Option.map Analysis.Certify.verdict_cube certification in
  let (rep_matrix, stats), d =
    counted "core.adaptive" (fun () ->
        Mcdft_core.Adaptive.build ?certified ~criterion:w.Workload.criterion
          ~jobs:w.Workload.jobs v.grid v.rep_views v.faults)
  in
  List.iter
    (fun c -> add_count c d)
    [
      "fastsim.smw_solves"; "fastsim.full_solves"; "fastsim.refine_steps";
      "mna.fills"; "fastsim.wcache_hits"; "fastsim.wcache_misses";
      "certify.solves_skipped"; "adaptive.bisections";
    ];
  add "core.solved" (float_of_int stats.Mcdft_core.Adaptive.solved);
  add "core.rep_points" (float_of_int stats.Mcdft_core.Adaptive.points);
  let n_views = List.length v.views in
  let rep_of = Array.make n_views 0 in
  List.iteri (fun g members -> List.iter (fun i -> rep_of.(i) <- g) members) v.groups;
  let rows a = Array.init n_views (fun i -> Array.copy a.(rep_of.(i))) in
  let matrix =
    {
      M.views = Array.of_list v.views;
      faults = rep_matrix.M.faults;
      detect = rows rep_matrix.M.detect;
      omega = rows rep_matrix.M.omega;
    }
  in
  let input =
    Mcdft_core.Optimizer.input_of_matrices ~n_opamps:(T.n_opamps v.dft)
      matrix.M.detect
      (Array.map (Array.map (fun x -> x *. 100.0)) matrix.M.omega)
  in
  let n_groups = List.length v.groups in
  let t =
    {
      P.benchmark = v.bench;
      dft = v.dft;
      grid = v.grid;
      criterion = w.Workload.criterion;
      faults = v.faults;
      matrix;
      input;
      equivalence_groups = n_groups;
      pruned_configs = n_views - n_groups;
      certify = certification;
      adaptive = Some stats;
    }
  in
  let report, d = counted "core.optimize" (fun () -> P.optimize t) in
  List.iter (fun c -> add_count c d)
    [ "optimizer.subsets_tested"; "cover.bnb_nodes"; "cover.greedy_gain_evals" ];
  add "analysis.views" (float_of_int n_views);
  add "analysis.replicated" (float_of_int (n_views - n_groups));
  (Check.verdict t report, certified)

(* The testability layer taken apart on each representative view, in
   the order Detect.prepare_view runs it: factorization, envelope
   thresholds, w-cache warm, then exhaustive scoring of every fault.
   Only the first two have their own public calls; a warm_cache on a
   fresh engine would redo the back-solves the threshold sweeps
   already cached, so warm_s is what prepare_view adds on top of them.
   The warm list is the one Adaptive.build uses. *)
let testability (w : Workload.t) v certified =
  let freqs_hz = Testability.Grid.freqs_hz v.grid in
  let has_unknown b = Bytes.exists (fun c -> c = '?') b in
  List.iteri
    (fun i (view : M.view) ->
      let warm =
        match certified with
        | None -> v.faults
        | Some cube ->
            List.filteri
              (fun j _ ->
                match cube.(i).(j) with Some b -> has_unknown b | None -> true)
              v.faults
      in
      let sim =
        Span.with_ "testability.lu" (fun () ->
            F.create ~source:v.probe.D.source ~output:v.probe.D.output ~freqs_hz
              view.M.netlist)
      in
      let lu_s = Span.last_duration () in
      let _, d =
        counted "testability.thresholds" (fun () ->
            D.prepare w.Workload.criterion v.probe v.grid view.M.netlist
              ~nominal:(F.nominal sim))
      in
      (* Detect.prepare builds its own engine when the criterion sweeps
         faults for its thresholds; that factorization is lu_s again. *)
      let solves = d "fastsim.smw_solves" + d "fastsim.full_solves" in
      let thresholds_s = Span.last_duration () -. if solves > 0 then lu_s else 0.0 in
      let pv =
        Span.with_ "testability.prepare_view" (fun () ->
            D.prepare_view ~criterion:w.Workload.criterion ~warm v.probe v.grid
              view.M.netlist)
      in
      add "testability.lu_s" lu_s;
      add "testability.thresholds_s" thresholds_s;
      add "testability.warm_s" (Span.last_duration () -. lu_s -. thresholds_s);
      add "fastsim.smw_solves_thresholds" (float_of_int (d "fastsim.smw_solves"));
      Span.with_ "testability.score" (fun () ->
          List.iter (fun f -> ignore (D.analyze_prepared pv v.grid f)) v.faults);
      add "testability.score_s" (Span.last_duration ()))
    v.rep_views;
  let _, d =
    counted "testability.exhaustive" (fun () ->
        M.build ~criterion:w.Workload.criterion ~jobs:w.Workload.jobs v.grid
          v.rep_views v.faults)
  in
  add "fastsim.smw_solves_exhaustive" (float_of_int (d "fastsim.smw_solves"));
  add "fastsim.full_solves_exhaustive" (float_of_int (d "fastsim.full_solves"))
