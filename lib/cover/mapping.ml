module IntSet = Clause.IntSet

let opamps_of_config i =
  if i < 0 then invalid_arg "Mapping.opamps_of_config: negative index";
  let rec bits k acc =
    if 1 lsl k > i then acc
    else bits (k + 1) (if i land (1 lsl k) <> 0 then IntSet.add k acc else acc)
  in
  bits 0 IntSet.empty

(* A term needs the opamps of each of its configurations: the union of
   their bit sets, i.e. the bits of their [lor]. *)
let opamps_of_term term = opamps_of_config (IntSet.fold ( lor ) term 0)

let xi_star terms = List.map opamps_of_term terms

let minimal_opamp_sets terms =
  let mapped = xi_star terms in
  match mapped with
  | [] -> []
  | _ ->
      let best =
        List.fold_left (fun acc s -> Int.min acc (IntSet.cardinal s)) max_int mapped
      in
      let minimal = List.filter (fun s -> IntSet.cardinal s = best) mapped in
      List.sort_uniq (fun a b -> List.compare Int.compare (IntSet.elements a) (IntSet.elements b)) minimal
