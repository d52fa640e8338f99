type t = {
  benchmark : Circuits.Benchmark.t;
  dft : Multiconfig.Transform.t;
  grid : Testability.Grid.t;
  criterion : Testability.Detect.criterion;
  faults : Fault.t list;
  matrix : Testability.Matrix.t;
  input : Optimizer.input;
  equivalence_groups : int;
  pruned_configs : int;
  certify : Analysis.Certify.t option;
  adaptive : Adaptive.stats option;
}

let default_criterion =
  Testability.Detect.Process_envelope { component_tol = 0.04; floor = 0.02 }

type campaign_stats = {
  dead_views : string list;
  lowrank : Testability.Lowrank.stats option;
}

let run_with_stats ?(criterion = default_criterion) ?(points_per_decade = 30) ?faults
    ?follower_model ?jobs ?backend ?(prune = true) ?(certify = false)
    ?(adaptive = true) (benchmark : Circuits.Benchmark.t) =
  Obs.Trace.span "pipeline.run" @@ fun () ->
  let netlist = benchmark.Circuits.Benchmark.netlist in
  Circuit.Validate.check_exn netlist;
  let dft =
    Obs.Trace.span "pipeline.transform" @@ fun () ->
    Multiconfig.Transform.make ~source:benchmark.Circuits.Benchmark.source
      ~output:benchmark.Circuits.Benchmark.output netlist
  in
  let grid =
    Testability.Grid.around ~points_per_decade
      ~center_hz:benchmark.Circuits.Benchmark.center_hz ()
  in
  let faults = match faults with Some f -> f | None -> Fault.deviation_faults netlist in
  let probe =
    {
      Testability.Detect.source = benchmark.Circuits.Benchmark.source;
      output = benchmark.Circuits.Benchmark.output;
    }
  in
  let views =
    Obs.Trace.span "pipeline.views" @@ fun () ->
    List.map
      (fun config ->
        {
          Testability.Matrix.label = Multiconfig.Configuration.label config;
          netlist = Multiconfig.Transform.emulate ?follower_model dft config;
          probe;
        })
      (Multiconfig.Transform.test_configurations dft)
  in
  let views_arr = Array.of_list views in
  let n_views = Array.length views_arr in
  (* Structurally dead views: where the test input cannot reach the
     output (lint C003), the transfer function is identically zero for
     every element value, so every fault is undetectable by definition
     — an all-'u' row with ω 0, decided before any engine exists. Left
     to the numeric path, such a view's round-off responses can sit
     just above the measurement floor and vote noise. *)
  let live =
    Obs.Trace.span "pipeline.dead_views" @@ fun () ->
    Array.map
      (fun (v : Testability.Matrix.view) ->
        Circuit.Influence.node_can_affect_output
          (Circuit.Influence.analyse ~output:probe.Testability.Detect.output
             v.Testability.Matrix.netlist)
          dft.Multiconfig.Transform.input_node)
      views_arr
  in
  let live_idx =
    Array.of_list (List.filter (fun i -> live.(i)) (List.init n_views Fun.id))
  in
  let n_live = Array.length live_idx in
  let dead_views =
    List.filter_map
      (fun i -> if live.(i) then None else Some views_arr.(i).Testability.Matrix.label)
      (List.init n_views Fun.id)
  in
  if n_live < n_views then Obs.Metrics.incr "campaign.dead_views" ~by:(n_views - n_live);
  (* Equivalence pruning over the live views: views whose assembled
     systems agree value-exactly (up to row sign, with every
     fault-touched row locked — see {!Analysis.Lint.value_signature})
     produce identical verdict rows, so the campaign simulates one
     representative per group and replicates its row. The grouping
     locks the rows of every faulted element under the campaign's own
     source mode, which is what makes the replication exact rather
     than heuristic. Groups hold view indices. *)
  let groups =
    Obs.Trace.span "pipeline.prune" @@ fun () ->
    if not prune then List.init n_live (fun k -> [ live_idx.(k) ])
    else
      let locked_elements =
        List.sort_uniq String.compare
          (List.map (fun f -> f.Fault.element) faults)
      in
      List.map
        (List.map (fun k -> live_idx.(k)))
        (Analysis.Lint.equivalence_groups
           ~sources:(Mna.Assemble.Only probe.Testability.Detect.source)
           ~locked_elements
           (Array.to_list
              (Array.map (fun i -> views_arr.(i).Testability.Matrix.netlist) live_idx)))
  in
  let n_groups = List.length groups in
  let pruned = n_live - n_groups in
  Obs.Metrics.incr "campaign.equivalence_groups" ~by:n_groups;
  if pruned > 0 then Obs.Metrics.incr "campaign.pruned_configs" ~by:pruned;
  (* representative (first member) of each group, and each live view's
     position in the representative list *)
  let rep_of = Array.make n_views 0 in
  List.iteri
    (fun g members -> List.iter (fun i -> rep_of.(i) <- g) members)
    groups;
  let rep_views =
    List.map (fun members -> views_arr.(List.hd members)) groups
  in
  (* Interval certification (opt-in): a static pass over the
     representative views proving (fault × frequency-point) verdicts
     from the symbolic transfer functions. The result is returned
     alongside the matrices; neither campaign path consumes it. Only
     the paper's Definition 1 criterion is certifiable — the deviation
     the intervals bound is exactly the fixed-ε magnitude
     comparison. *)
  let certification =
    match criterion with
    | Testability.Detect.Fixed_tolerance eps when certify && eps > 0.0 ->
        Obs.Trace.span "pipeline.certify" @@ fun () ->
        let specs =
          List.map
            (fun (v : Testability.Matrix.view) ->
              {
                Analysis.Certify.label = v.Testability.Matrix.label;
                netlist = v.Testability.Matrix.netlist;
                source = probe.Testability.Detect.source;
                output = probe.Testability.Detect.output;
              })
            rep_views
        in
        Some
          (Analysis.Certify.certify ~eps
             ~freqs_hz:(Testability.Grid.freqs_hz grid)
             specs faults)
    | _ -> None
  in
  (* The low-rank campaign (default) factors the functional view once per
     frequency and serves every representative through its capacitance
     matrix, falling back to the per-view engine wherever its error
     bound cannot separate a verdict; its matrices are bitwise those of
     the per-view Matrix.build — asserted by the tier-1 tests and the
     lowrank-vs-per-view oracle. *)
  let rep_matrix, lowrank =
    if adaptive then
      let base =
        Multiconfig.Transform.emulate ?follower_model dft
          (Multiconfig.Configuration.functional
             ~n_opamps:(Multiconfig.Transform.n_opamps dft))
      in
      let matrix, stats =
        Testability.Lowrank.build ~base ?backend ~criterion ?jobs grid rep_views faults
      in
      (matrix, Some stats)
    else
      ( Testability.Matrix.build ?backend ~criterion ?jobs grid rep_views faults,
        None )
  in
  (* Expand back to the full view list: a live row is a copy of its
     representative's row, a dead row reads "undetectable" throughout,
     so the matrix is indistinguishable from an unpruned build. *)
  let m = List.length faults in
  let row a zero i = if live.(i) then Array.copy a.(rep_of.(i)) else Array.make m zero in
  let matrix =
    {
      Testability.Matrix.views = views_arr;
      faults = Array.of_list faults;
      detect = Array.init n_views (row rep_matrix.Testability.Matrix.detect false);
      omega = Array.init n_views (row rep_matrix.Testability.Matrix.omega 0.0);
    }
  in
  let omega_percent =
    Array.map (Array.map (fun v -> v *. 100.0)) matrix.Testability.Matrix.omega
  in
  let input =
    Optimizer.input_of_matrices ~n_opamps:(Multiconfig.Transform.n_opamps dft)
      matrix.Testability.Matrix.detect omega_percent
  in
  ( {
      benchmark;
      dft;
      grid;
      criterion;
      faults;
      matrix;
      input;
      equivalence_groups = n_groups;
      pruned_configs = pruned;
      certify = certification;
      adaptive = None;
    },
    { dead_views; lowrank } )

let run ?criterion ?points_per_decade ?faults ?follower_model ?jobs ?backend ?prune
    ?certify ?adaptive benchmark =
  fst
    (run_with_stats ?criterion ?points_per_decade ?faults ?follower_model ?jobs ?backend
       ?prune ?certify ?adaptive benchmark)

let optimize ?petrick_limit ?n_detect t =
  Obs.Trace.span "pipeline.optimize" @@ fun () ->
  Optimizer.optimize ?petrick_limit ?n_detect t.input

let functional_results t =
  let probe =
    {
      Testability.Detect.source = t.benchmark.Circuits.Benchmark.source;
      output = t.benchmark.Circuits.Benchmark.output;
    }
  in
  Testability.Detect.analyze ~criterion:t.criterion probe t.grid
    t.benchmark.Circuits.Benchmark.netlist t.faults
