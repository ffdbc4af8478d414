module Path = Dps_network.Path

let zero m = Array.make m 0.

let of_link_counts m assocs =
  let r = zero m in
  List.iter
    (fun (e, k) ->
      assert (e >= 0 && e < m && k >= 0);
      r.(e) <- r.(e) +. float_of_int k)
    assocs;
  r

let of_paths m paths =
  let r = zero m in
  List.iter
    (fun p ->
      for i = 0 to Path.length p - 1 do
        let e = Path.hop p i in
        r.(e) <- r.(e) +. 1.
      done)
    paths;
  r

let add a b =
  assert (Array.length a = Array.length b);
  Array.mapi (fun i x -> x +. b.(i)) a

let scale c a = Array.map (fun x -> c *. x) a
