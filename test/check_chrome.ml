(* check_chrome FILE...: exits 1 unless every FILE loads as one JSON array
   of Chrome trace records whose async opens ("b") and closes ("e") pair
   up — what a traced run must leave behind even when a trap or a usage
   error ends it. *)

module J = Gem_util.Jsonx

let check path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Some (Printf.sprintf "%s does not parse: %s" path e)
  | Ok j -> (
      match J.to_list j with
      | None -> Some (path ^ " is not a JSON array")
      | Some records ->
          let count ph =
            List.length
              (List.filter (fun r -> J.member "ph" r = Some (J.String ph)) records)
          in
          if count "b" = count "e" then None
          else
            Some
              (Printf.sprintf "%s: %d async opens but %d closes" path
                 (count "b") (count "e")))

let () =
  let errors =
    List.filter_map check (List.tl (Array.to_list Sys.argv))
  in
  List.iter prerr_endline errors;
  if errors <> [] then exit 1
