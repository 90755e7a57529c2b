open Nra_relational

type direction = Asc | Desc
type key = { pos : int; dir : direction }

let sort keys rel =
  let cmp a b =
    let rec go = function
      | [] -> 0
      | { pos; dir } :: rest ->
          let c = Value.compare a.(pos) b.(pos) in
          if c <> 0 then (match dir with Asc -> c | Desc -> -c)
          else go rest
    in
    go keys
  in
  let rows = Array.copy (Relation.rows rel) in
  Array.stable_sort cmp rows;
  Relation.restrict rel rows
