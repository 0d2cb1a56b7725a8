(* Packed q-gram keys. See mli. *)

let packed_symbol_bits = 20
let packed_symbol_limit = 1 lsl packed_symbol_bits

(* 3 * 20 = 60 bits: packed keys stay well inside OCaml's 63-bit int. *)
let packed_q_limit = 3

(* Splitmix64-style finalizer, adapted to OCaml's 63-bit native ints
   (the multiplier constants must fit; these are < 2^62). The exact
   constants don't matter beyond avalanche quality — what matters is
   that the function is a fixed pure permutation-ish mix, so keys are
   deterministic across runs, domains and processes. *)
let mix h =
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land max_int

(* Fallback for grams that can't be packed exactly: fold each symbol
   through the mixer. Collisions are possible but ~2^-62 per pair. *)
let chained_step acc sym = mix ((acc lsl 7) lxor sym)

let gram_key s ~pos ~q =
  if q <= 0 then invalid_arg "Sketch.gram_key";
  if q <= packed_q_limit then begin
    let k = ref 0 and packed = ref true in
    for j = pos to pos + q - 1 do
      let sym = Array.unsafe_get s j in
      if sym < 0 || sym >= packed_symbol_limit then packed := false;
      k := (!k lsl packed_symbol_bits) lor (sym land (packed_symbol_limit - 1))
    done;
    if !packed then !k
    else begin
      let h = ref 0 in
      for j = pos to pos + q - 1 do
        h := chained_step !h s.(j)
      done;
      !h
    end
  end
  else begin
    let h = ref 0 in
    for j = pos to pos + q - 1 do
      h := chained_step !h s.(j)
    done;
    !h
  end
