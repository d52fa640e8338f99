module IntSet = Clause.IntSet

(* All [need]-element subsets of a clause's literals, in element order
   (so that need = 1 reproduces the paper's derivation order). An
   unsatisfiable clause (|lits| < need) yields no subsets, so the whole
   expansion collapses to [] — the POS expression is identically 0. *)
let need_subsets (c : Clause.clause) =
  let rec choose k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest -> List.map (fun s -> x :: s) (choose (k - 1) rest) @ choose k rest
  in
  choose c.Clause.need (IntSet.elements c.Clause.lits)

let compare_terms a b =
  match Int.compare (IntSet.cardinal a) (IntSet.cardinal b) with
  | 0 -> List.compare Int.compare (IntSet.elements a) (IntSet.elements b)
  | c -> c

module Sets = struct
  let dedup terms =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun t ->
        let key = IntSet.elements t in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      terms

  (* One distribution step: multiply the running sum of products by a
     clause — for multiplicity clauses, by the sum over its
     [need]-subsets (any solution picks at least one full subset). *)
  let distribute products clause =
    let subsets = List.map IntSet.of_list (need_subsets clause) in
    List.concat_map (fun p -> List.map (fun s -> IntSet.union s p) subsets) products

  let expand_raw (t : Clause.t) =
    List.fold_left
      (fun products clause -> dedup (distribute products clause))
      [ IntSet.empty ] t.Clause.clauses

  let absorb terms =
    (* keep only minimal terms: t is dropped when some other term is a
       proper subset (or an equal earlier term) *)
    let arr = Array.of_list (dedup terms) in
    let n = Array.length arr in
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && keep.(i) && keep.(j) && IntSet.subset arr.(j) arr.(i) && not (IntSet.equal arr.(i) arr.(j))
        then keep.(i) <- false
      done
    done;
    List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)

  let expand (t : Clause.t) =
    let products =
      List.fold_left
        (fun products clause -> absorb (distribute products clause))
        [ IntSet.empty ] t.Clause.clauses
    in
    List.sort compare_terms products
end

(* The same algorithm with a term packed into one int, bit i standing
   for candidate i: union is [lor], the subset test [a land lnot b = 0],
   and deduplication hashes a machine word instead of an element list.
   Bit [Sys.int_size - 1] is the sign bit, so candidates stop one
   short of it. *)
module Masks = struct
  module Tbl = Hashtbl.Make (Int)

  let fits (t : Clause.t) =
    List.for_all
      (fun (c : Clause.clause) ->
        IntSet.is_empty c.Clause.lits
        || (IntSet.min_elt c.Clause.lits >= 0
           && IntSet.max_elt c.Clause.lits < Sys.int_size - 1))
      t.Clause.clauses

  let to_set m =
    let rec go i m acc =
      if m = 0 then acc
      else go (i + 1) (m lsr 1) (if m land 1 = 1 then IntSet.add i acc else acc)
    in
    go 0 m IntSet.empty

  (* Distribute and deduplicate in one pass, keeping first occurrences
     in distribution order — exactly [Sets.dedup (Sets.distribute …)]. *)
  let distribute_dedup products clause =
    let subsets =
      List.map (List.fold_left (fun m i -> m lor (1 lsl i)) 0) (need_subsets clause)
    in
    let seen = Tbl.create 64 in
    let out = ref [] in
    List.iter
      (fun p ->
        List.iter
          (fun s ->
            let t = s lor p in
            if not (Tbl.mem seen t) then begin
              Tbl.add seen t ();
              out := t :: !out
            end)
          subsets)
      products;
    List.rev !out

  (* [Sets.absorb] on distinct masks: drop a term when some kept term
     is a proper subset of it. *)
  let absorb terms =
    let arr = Array.of_list terms in
    let n = Array.length arr in
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      let a = arr.(i) in
      let j = ref 0 in
      while keep.(i) && !j < n do
        let b = arr.(!j) in
        if !j <> i && keep.(!j) && b land lnot a = 0 then keep.(i) <- false;
        incr j
      done
    done;
    List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)

  let expand_raw (t : Clause.t) =
    List.fold_left distribute_dedup [ 0 ] t.Clause.clauses |> List.map to_set

  let expand (t : Clause.t) =
    List.fold_left
      (fun products clause -> absorb (distribute_dedup products clause))
      [ 0 ] t.Clause.clauses
    |> List.map to_set |> List.sort compare_terms
end

let expand_raw t = if Masks.fits t then Masks.expand_raw t else Sets.expand_raw t
let expand t = if Masks.fits t then Masks.expand t else Sets.expand t

let cheapest ?(cost = fun _ -> 1.0) terms =
  match terms with
  | [] -> []
  | _ ->
      let total t = IntSet.fold (fun c acc -> acc +. cost c) t 0.0 in
      let best = List.fold_left (fun acc t -> Float.min acc (total t)) infinity terms in
      List.filter (fun t -> total t <= best +. 1e-12) terms
