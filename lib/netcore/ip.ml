type t =
  | V4 of int32
  | V6 of int64 * int64

let compare a b =
  match a, b with
  | V4 x, V4 y -> Int32.compare x y
  | V6 (xh, xl), V6 (yh, yl) ->
    let c = Int64.compare xh yh in
    if c <> 0 then c else Int64.compare xl yl
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1

let[@inline] hash_fold acc = function
  | V4 x -> Hashing.mix64 (Int64.logxor acc (Int64.of_int32 x))
  | V6 (h, l) -> Hashing.mix64 (Int64.logxor (Hashing.mix64 (Int64.logxor acc h)) l)

let v4 a b c d =
  assert (a land 0xff = a && b land 0xff = b && c land 0xff = c && d land 0xff = d);
  V4 (Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d))

let v6 h l = V6 (h, l)

let family_bytes = function V4 _ -> 4 | V6 _ -> 16
let is_v6 = function V4 _ -> false | V6 _ -> true

let pp ppf = function
  | V4 x ->
    let x = Int32.to_int x land 0xffffffff in
    Format.fprintf ppf "%d.%d.%d.%d"
      ((x lsr 24) land 0xff) ((x lsr 16) land 0xff) ((x lsr 8) land 0xff) (x land 0xff)
  | V6 (h, l) ->
    let group i =
      let word = if i < 4 then h else l in
      let shift = 48 - 16 * (i mod 4) in
      Int64.to_int (Int64.logand (Int64.shift_right_logical word shift) 0xffffL)
    in
    Format.fprintf ppf "%x:%x:%x:%x:%x:%x:%x:%x"
      (group 0) (group 1) (group 2) (group 3) (group 4) (group 5) (group 6) (group 7)

let of_string s =
  let parse_v4 s =
    match String.split_on_char '.' s with
    | [a; b; c; d] ->
      (try
         let a = int_of_string a and b = int_of_string b
         and c = int_of_string c and d = int_of_string d in
         if a land 0xff = a && b land 0xff = b && c land 0xff = c && d land 0xff = d
         then Some (v4 a b c d)
         else None
       with Failure _ -> None)
    | _ -> None
  in
  let parse_v6 s =
    let group_value g =
      if g = "" || String.length g > 4 then None
      else
        match int_of_string_opt ("0x" ^ g) with
        | Some v when v >= 0 && v land 0xffff = v -> Some v
        | Some _ | None -> None
    in
    let pack values =
      let fold vs =
        List.fold_left
          (fun acc v -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int v))
          0L vs
      in
      let rec split n acc = function
        | rest when n = 0 -> List.rev acc, rest
        | [] -> List.rev acc, []
        | x :: rest -> split (n - 1) (x :: acc) rest
      in
      let hi, lo = split 4 [] values in
      V6 (fold hi, fold lo)
    in
    let groups_of parts =
      let rec all acc = function
        | [] -> Some (List.rev acc)
        | g :: rest ->
          (match group_value g with
           | Some v -> all (v :: acc) rest
           | None -> None)
      in
      all [] parts
    in
    (* Split on "::" first: at most one abbreviation is allowed. *)
    match Str_split.on_double_colon s with
    | Str_split.No_abbrev parts ->
      (match groups_of parts with
       | Some values when List.length values = 8 -> Some (pack values)
       | Some _ | None -> None)
    | Str_split.Abbrev (left, right) ->
      (match groups_of left, groups_of right with
       | Some l, Some r when List.length l + List.length r <= 7 ->
         let zeros = List.init (8 - List.length l - List.length r) (fun _ -> 0) in
         Some (pack (l @ zeros @ r))
       | _, _ -> None)
    | Str_split.Malformed -> None
  in
  if String.contains s ':' then parse_v6 s else parse_v4 s
