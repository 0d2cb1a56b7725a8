(* q-gram profiles over packed keys (Sketch.gram_key): exact for the
   q <= 3 / small-code envelope every workload here lives in, and a
   single int compares and hashes far faster than the old int-list keys.
   Counts are stored behind a ref so the hot increment path does one
   lookup on repeat grams instead of a find_opt + replace pair. *)

type profile = { counts : (int, float ref) Hashtbl.t; norm : float }

let profile ~q s =
  if q <= 0 then invalid_arg "Qgram.profile";
  let counts = Hashtbl.create 64 in
  let l = Array.length s in
  for i = 0 to l - q do
    let key = Sketch.gram_key s ~pos:i ~q in
    match Hashtbl.find_opt counts key with
    | Some c -> c := !c +. 1.0
    | None -> Hashtbl.add counts key (ref 1.0)
  done;
  let norm = sqrt (Hashtbl.fold (fun _ c acc -> acc +. (!c *. !c)) counts 0.0) in
  { counts; norm }

let dimensions p = Hashtbl.length p.counts
let is_empty p = Hashtbl.length p.counts = 0

let cosine a b =
  if a.norm <= 0.0 || b.norm <= 0.0 then 0.0
  else begin
    (* Iterate the smaller table. *)
    let small, large =
      if Hashtbl.length a.counts <= Hashtbl.length b.counts then (a, b) else (b, a)
    in
    let dot =
      Hashtbl.fold
        (fun key v acc ->
          match Hashtbl.find_opt large.counts key with
          | Some w -> acc +. (!v *. !w)
          | None -> acc)
        small.counts 0.0
    in
    dot /. (a.norm *. b.norm)
  end

type result = { labels : int array; iterations : int }

let unassigned = -1

let centroid_of profiles members =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun i ->
      let p = profiles.(i) in
      if p.norm > 0.0 then
        Hashtbl.iter
          (fun key v ->
            let nv = !v /. p.norm in
            match Hashtbl.find_opt counts key with
            | Some acc -> acc := !acc +. nv
            | None -> Hashtbl.add counts key (ref nv))
          p.counts)
    members;
  let norm = sqrt (Hashtbl.fold (fun _ c acc -> acc +. (!c *. !c)) counts 0.0) in
  { counts; norm }

let cluster rng ~k ~q ?(rounds = 20) data =
  let n = Array.length data in
  if k <= 0 || k > n then invalid_arg "Qgram.cluster";
  let profiles = Array.map (profile ~q) data in
  let seeds = Rng.sample_without_replacement rng ~k ~n in
  let centroids = Array.map (fun i -> centroid_of profiles [ i ]) seeds in
  (* A retired cluster never competes in the argmax again: clusters
     seeded from an empty profile start retired, and a cluster that
     loses its last member is retired rather than left as a stale ghost
     attractor (the old behaviour kept its previous centroid, which
     could capture sequences on later rounds). *)
  let retired = Array.map (fun c -> c.norm <= 0.0) centroids in
  let labels = Array.make n unassigned in
  let iters = ref 0 and changed = ref true in
  while !changed && !iters < rounds do
    incr iters;
    changed := false;
    Array.iteri
      (fun i p ->
        (* Empty profiles (|s| < q) have cosine 0 against everything;
           the old argmax silently dumped them into cluster 0. They stay
           deterministically unassigned instead. *)
        if p.norm > 0.0 then begin
          let best = ref unassigned and best_c = ref neg_infinity in
          Array.iteri
            (fun c centroid ->
              if not retired.(c) then begin
                let cs = cosine p centroid in
                if cs > !best_c then begin
                  best_c := cs;
                  best := c
                end
              end)
            centroids;
          if !best <> unassigned && labels.(i) <> !best then begin
            labels.(i) <- !best;
            changed := true
          end
        end)
      profiles;
    if !changed then
      for c = 0 to k - 1 do
        if not retired.(c) then begin
          let members = ref [] in
          Array.iteri (fun i l -> if l = c then members := i :: !members) labels;
          if !members = [] then retired.(c) <- true
          else centroids.(c) <- centroid_of profiles !members
        end
      done
  done;
  { labels; iterations = !iters }
