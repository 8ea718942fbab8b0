(* Tile labels without Printf: measure the decimal width of each
   integer, allocate the result once, then write literals and digits
   in place. *)

(* Negative values never name a tile; they take the slow path. *)
let rec width n =
  if n < 0 then String.length (string_of_int n)
  else if n < 10 then 1
  else 1 + width (n / 10)

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_int b pos n =
  if n < 0 then put_string b pos (string_of_int n)
  else begin
    let stop = pos + width n in
    let rec digits i v =
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (v mod 10)));
      if v >= 10 then digits (i - 1) (v / 10)
    in
    digits (stop - 1) n;
    stop
  end

let int1 s0 a s1 =
  let b = Bytes.create (String.length s0 + width a + String.length s1) in
  let pos = put_string b 0 s0 in
  let pos = put_int b pos a in
  ignore (put_string b pos s1);
  Bytes.unsafe_to_string b

let int2 s0 a s1 b_ s2 =
  let b =
    Bytes.create
      (String.length s0 + width a + String.length s1 + width b_
     + String.length s2)
  in
  let pos = put_string b 0 s0 in
  let pos = put_int b pos a in
  let pos = put_string b pos s1 in
  let pos = put_int b pos b_ in
  ignore (put_string b pos s2);
  Bytes.unsafe_to_string b

let int3 s0 a s1 b_ s2 c s3 =
  let b =
    Bytes.create
      (String.length s0 + width a + String.length s1 + width b_
     + String.length s2 + width c + String.length s3)
  in
  let pos = put_string b 0 s0 in
  let pos = put_int b pos a in
  let pos = put_string b pos s1 in
  let pos = put_int b pos b_ in
  let pos = put_string b pos s2 in
  let pos = put_int b pos c in
  ignore (put_string b pos s3);
  Bytes.unsafe_to_string b
