module StringSet = Set.Make (String)

type t = {
  predicted : (int * string list) list;
  total_pairs : int;
  pruned_pairs : int;
}

let analyse ?follower_model ?faults (dft : Multiconfig.Transform.t) =
  let det = Analysis.Detectability.analyse ?follower_model ?faults dft in
  {
    predicted = det.Analysis.Detectability.influential;
    total_pairs = Analysis.Detectability.total_pairs det;
    pruned_pairs = Analysis.Detectability.skip_count det;
  }

let run ?(criterion = Pipeline.default_criterion) ?(points_per_decade = 30) ?faults
    ?(adaptive = true) ?solve_budget
    (benchmark : Circuits.Benchmark.t) =
  let netlist = benchmark.Circuits.Benchmark.netlist in
  Circuit.Validate.check_exn netlist;
  let dft =
    Multiconfig.Transform.make ~source:benchmark.Circuits.Benchmark.source
      ~output:benchmark.Circuits.Benchmark.output netlist
  in
  let faults = match faults with Some f -> f | None -> Fault.deviation_faults netlist in
  let plan = analyse ~faults dft in
  let grid =
    Testability.Grid.around ~points_per_decade
      ~center_hz:benchmark.Circuits.Benchmark.center_hz ()
  in
  let probe =
    {
      Testability.Detect.source = benchmark.Circuits.Benchmark.source;
      output = benchmark.Circuits.Benchmark.output;
    }
  in
  let fault_array = Array.of_list faults in
  let configs = Multiconfig.Transform.test_configurations dft in
  let n = List.length configs and m = Array.length fault_array in
  let detect = Array.make_matrix n m false in
  let omega = Array.make_matrix n m 0.0 in
  let views =
    List.map
      (fun config ->
        let view = Multiconfig.Transform.emulate dft config in
        {
          Testability.Matrix.label = Multiconfig.Configuration.label config;
          netlist = view;
          probe;
        })
      configs
  in
  let index_of fault =
    let rec find k =
      if fault_array.(k).Fault.id = fault.Fault.id then k else find (k + 1)
    in
    find 0
  in
  List.iteri
    (fun i config ->
      let view = (List.nth views i).Testability.Matrix.netlist in
      let reachable =
        StringSet.of_list
          (List.assoc (Multiconfig.Configuration.index config) plan.predicted)
      in
      let wanted =
        Array.to_list fault_array
        |> List.filter (fun f -> StringSet.mem f.Fault.element reachable)
      in
      Obs.Metrics.incr ~by:(m - List.length wanted) "prefilter.structural_skips";
      (* one shared nominal sweep and threshold preparation per view,
         as in Matrix.build, but only the reachable faults simulated —
         adaptively by default, so even the surviving rows solve only
         around their verdict boundaries *)
      if wanted <> [] then
        if adaptive then begin
          let view_rec = List.nth views i in
          let m, _stats =
            Adaptive.build ~criterion ~jobs:1 ?solve_budget grid [ view_rec ]
              wanted
          in
          List.iteri
            (fun k fault ->
              let j = index_of fault in
              detect.(i).(j) <- m.Testability.Matrix.detect.(0).(k);
              omega.(i).(j) <- m.Testability.Matrix.omega.(0).(k))
            wanted
        end
        else begin
          let results = Testability.Detect.analyze ~criterion probe grid view wanted in
          List.iter2
            (fun fault (r : Testability.Detect.result) ->
              let j = index_of fault in
              detect.(i).(j) <- r.Testability.Detect.detectable;
              omega.(i).(j) <- r.Testability.Detect.omega_det)
            wanted results
        end)
    configs;
  ( plan,
    {
      Testability.Matrix.views = Array.of_list views;
      faults = fault_array;
      detect;
      omega;
    } )
