(* Seeded benchmark inputs. The program under test only ever receives
   the generated netlists (and, for zoo-fixed, their SPICE text);
   everything else here is harness. *)

module Netlist = Circuit.Netlist
module Benchmark = Circuits.Benchmark

type input = {
  bench : Benchmark.t;
  spice : string option;
      (** zoo-fixed: the netlist as SPICE text, parsed inside every
          campaign; [bench.netlist] is then the parsed copy the
          reference is computed on. *)
}

type t = {
  name : string;
  criterion : Testability.Detect.criterion;
  ppd : int;
  jobs : int;
  inputs : input list;
}

let names =
  [ "leapfrog5-envelope"; "leapfrog5-envelope-j2"; "bigladder-envelope"; "zoo-fixed" ]

(* Seed 0 keeps the registry values; any other seed scales every
   passive by its own factor in [0.98, 1.02], inside the criterion's
   4 % process envelope, so a different seed is a different but
   equally well-posed campaign. *)
let scale rs netlist =
  List.fold_left
    (fun n e ->
      let k = 0.98 +. Random.State.float rs 0.04 in
      Netlist.map_value ~name:(Circuit.Element.name e) ~f:(fun v -> v *. k) n)
    netlist (Netlist.passives netlist)

let shuffle rs l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let registry name =
  match Circuits.Registry.find name with
  | Some b -> b
  | None -> failwith ("registry has no circuit " ^ name)

(* The bigladder draw bench/sparse.ml times at seed 0: 300 stages, so
   the MNA dimension is fixed and only the values move with the seed. *)
let bigladder seed =
  let key = if seed = 0 then [| 0x5bad; 300 |] else [| 0x5bad; 300; seed |] in
  let netlist, output =
    Conformance.Gen.bigladder ~stages:300 (Random.State.make key)
  in
  {
    Benchmark.name = "bigladder-300";
    description = "big RC double ladder";
    netlist;
    source = "V1";
    output;
    center_hz = 10_000.0;
  }

let parse_exn text =
  match Spice.Parser.parse_string text with
  | Ok n -> n
  | Error e -> failwith ("SPICE parse: " ^ Spice.Parser.error_to_string e)

let make ~seed name =
  let rs = Random.State.make [| 0x6d63; seed |] in
  let seeded b =
    if seed = 0 then b else { b with Benchmark.netlist = scale rs b.Benchmark.netlist }
  in
  let plain b = { bench = seeded b; spice = None } in
  let envelope = Mcdft_core.Pipeline.default_criterion in
  match name with
  | "leapfrog5-envelope" | "leapfrog5-envelope-j2" ->
      {
        name;
        criterion = envelope;
        ppd = 30;
        jobs = (if name = "leapfrog5-envelope" then 1 else 2);
        inputs = [ plain (registry "leapfrog5") ];
      }
  | "bigladder-envelope" ->
      { name; criterion = envelope; ppd = 10; jobs = 1; inputs = [ plain (bigladder seed) ] }
  | "zoo-fixed" ->
      let zoo =
        List.filter
          (fun b -> b.Benchmark.name <> "leapfrog5")
          (Circuits.Registry.all ())
      in
      let zoo = if seed = 0 then zoo else shuffle rs zoo in
      let inputs =
        List.map
          (fun b ->
            let b = seeded b in
            let text = Spice.Writer.to_string b.Benchmark.netlist in
            { bench = { b with netlist = parse_exn text }; spice = Some text })
          zoo
      in
      {
        name;
        criterion = Testability.Detect.Fixed_tolerance 0.1;
        ppd = 30;
        jobs = 1;
        inputs;
      }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The netlist one campaign hands to the program: zoo-fixed parses its
   text again every time, as a user reading a netlist file would. *)
let netlist_for_campaign inp =
  match inp.spice with
  | Some text -> { inp.bench with Benchmark.netlist = parse_exn text }
  | None -> inp.bench
