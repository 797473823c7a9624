let quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let of_figure (fig : Figure.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "series,x,y\n";
  List.iter
    (fun (s : Series.t) ->
       Array.iter
         (fun (x, y) ->
            Buffer.add_string buf
              (Printf.sprintf "%s,%.10g,%.10g\n" (quote s.Series.label) x y))
         s.Series.points)
    fig.Figure.series;
  Buffer.contents buf

let write path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let save_figure ~path fig = write path (of_figure fig)
