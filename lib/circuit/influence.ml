module StringSet = Set.Make (String)

type t = {
  netlist : Netlist.t;
  influential : StringSet.t;  (* nodes *)
  stiff : StringSet.t;  (* ideally driven nodes *)
}

(* A node is stiff when an ideal source pins its voltage against
   ground: the positive terminal of a ground-referenced V source or
   VCVS, or an opamp output (always ground-referenced here). Elements
   hanging on a stiff node cannot influence it. *)
let stiff_nodes netlist =
  List.fold_left
    (fun acc e ->
      match e with
      | Element.Vsource { npos; nneg; _ } | Element.Vcvs { npos; nneg; _ } ->
          if nneg = Element.ground then StringSet.add npos acc
          else if npos = Element.ground then StringSet.add nneg acc
          else acc
      | Element.Ccvs { npos; nneg; _ } ->
          if nneg = Element.ground then StringSet.add npos acc
          else if npos = Element.ground then StringSet.add nneg acc
          else acc
      | Element.Opamp { out; _ } -> StringSet.add out acc
      | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _
      | Element.Isource _ | Element.Vccs _ | Element.Cccs _ -> acc)
    StringSet.empty
    (Netlist.elements netlist)

let analyse ~output netlist =
  let stiff = stiff_nodes netlist in
  let influential = ref (StringSet.singleton output) in
  let add n =
    if n <> Element.ground && not (StringSet.mem n !influential) then begin
      influential := StringSet.add n !influential;
      true
    end
    else false
  in
  let in_set n = StringSet.mem n !influential in
  let soft n = in_set n && not (StringSet.mem n stiff) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        let step =
          match e with
          | Element.Resistor { n1; n2; _ } | Element.Capacitor { n1; n2; _ }
          | Element.Inductor { n1; n2; _ } ->
              (* conduction couples the terminals wherever the node is
                 not ideally driven *)
              (if soft n1 then add n2 else false) || if soft n2 then add n1 else false
          | Element.Opamp { inp; inn; out; _ } ->
              if in_set out then (add inp || add inn) else false
          | Element.Vcvs { npos; cpos; cneg; _ } ->
              if in_set npos then (add cpos || add cneg) else false
          | Element.Vccs { npos; nneg; cpos; cneg; _ } ->
              if soft npos || soft nneg then (add cpos || add cneg) else false
          | Element.Ccvs { npos; vsense; _ } ->
              if in_set npos then
                match Netlist.find netlist vsense with
                | Some (Element.Vsource { npos = sp; nneg = sn; _ }) ->
                    add sp || add sn
                | _ -> false
              else false
          | Element.Cccs { npos; nneg; vsense; _ } ->
              if soft npos || soft nneg then
                match Netlist.find netlist vsense with
                | Some (Element.Vsource { npos = sp; nneg = sn; _ }) ->
                    add sp || add sn
                | _ -> false
              else false
          | Element.Vsource _ | Element.Isource _ -> false
        in
        if step then changed := true)
      (Netlist.elements netlist)
  done;
  { netlist; influential = !influential; stiff }

let influential_nodes t = StringSet.elements t.influential
let node_can_affect_output t node = StringSet.mem node t.influential

let can_affect_output t element =
  let e = Netlist.find_exn t.netlist element in
  List.exists
    (fun n ->
      n <> Element.ground
      && StringSet.mem n t.influential
      && not (StringSet.mem n t.stiff))
    (Element.nodes e)

let influential_passives t =
  List.filter_map
    (fun e ->
      let name = Element.name e in
      if can_affect_output t name then Some name else None)
    (Netlist.passives t.netlist)
