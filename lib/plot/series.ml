type t = {
  label : string;
  points : (float * float) array;
}

let make ~label points = { label; points = Array.copy points }

let filter p t = { t with points = Array.of_list (List.filter p (Array.to_list t.points)) }

let ys t = Array.map snd t.points

let extent series =
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  let seen = ref false in
  List.iter
    (fun s ->
       Array.iter
         (fun (x, y) ->
            seen := true;
            if x < !xmin then xmin := x;
            if x > !xmax then xmax := x;
            if y < !ymin then ymin := y;
            if y > !ymax then ymax := y)
         s.points)
    series;
  if not !seen then invalid_arg "Series.extent: all series empty";
  ((!xmin, !xmax), (!ymin, !ymax))
