(* The independent answer checker.  It reads a generator as the rows of
   0/1 characters the program renders (on the wire or through
   [Hamming.Code.to_string]) and checks it with its own arithmetic: no
   call into Hamming.Distance, Synth.Verify or the solver.  A row is an
   int whose bit j is column j, so block lengths up to 62 fit. *)

type gen = { k : int; n : int; rows : int array }

type expect = {
  k : int;
  c : int;
  md : int;  (** the minimum distance the answer must reach *)
  pins : (int * int * bool) list;  (** (row, column, value) in [G] *)
  griesmer : bool;
      (** the check length must equal the Griesmer bound (a minimality
          walk whose rows admit codes meeting it) *)
}

let parse s =
  let rows =
    String.split_on_char '\n' s
    |> List.concat_map (String.split_on_char '-')
    |> List.map String.trim
    |> List.filter (fun r -> r <> "")
  in
  match rows with
  | [] -> Error "empty generator"
  | r0 :: _ ->
      let n = String.length r0 in
      if n > 62 then Error "block length above 62"
      else if List.exists (fun r -> String.length r <> n) rows then
        Error "ragged rows"
      else
        let bits r =
          let v = ref 0 in
          String.iteri
            (fun j ch ->
              match ch with
              | '1' -> v := !v lor (1 lsl j)
              | '0' -> ()
              | _ -> invalid_arg "not a 0/1 row")
            r;
          !v
        in
        match Array.of_list (List.map bits rows) with
        | rows -> Ok { k = Array.length rows; n; rows }
        | exception Invalid_argument m -> Error m

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let trailing_zeros x =
  let rec go x i = if x land 1 = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

(* Every nonzero codeword, in Gray-code order: step i flips data bit
   [trailing_zeros i], so each codeword is one XOR from the previous. *)
let min_distance (g : gen) =
  let acc = ref 0 and best = ref max_int in
  for i = 1 to (1 lsl g.k) - 1 do
    acc := !acc lxor g.rows.(trailing_zeros i);
    let w = popcount !acc in
    if w < !best then best := w
  done;
  !best

let systematic (g : gen) =
  let mask = (1 lsl g.k) - 1 in
  let ok = ref true in
  Array.iteri (fun r row -> if row land mask <> 1 lsl r then ok := false) g.rows;
  !ok

(* Griesmer: n >= sum_{i<k} ceil(d / 2^i); returned as a check length. *)
let griesmer_check_len ~k ~d =
  let rec sum i acc =
    if i = k then acc else sum (i + 1) (acc + ((d + (1 lsl i) - 1) lsr i))
  in
  sum 0 0 - k

let check (e : expect) matrix =
  match parse matrix with
  | Error m -> Error m
  | Ok g ->
      let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
      let c = g.n - g.k in
      if g.k <> e.k || c <> e.c then
        fail "shape k=%d c=%d, expected k=%d c=%d" g.k c e.k e.c
      else if not (systematic g) then fail "not of the form [I_k | P]"
      else
        match
          List.find_opt
            (fun (r, col, v) ->
              r >= g.k || col >= g.n || (g.rows.(r) lsr col) land 1 = 1 <> v)
            e.pins
        with
        | Some (r, col, v) ->
            fail "pinned entry G(%d,%d) is not %d" r col (Bool.to_int v)
        | None ->
            let gb = griesmer_check_len ~k:e.k ~d:e.md in
            if c < gb then fail "c=%d is below the Griesmer bound %d" c gb
            else if e.griesmer && c <> gb then
              fail "c=%d, but codes meeting the Griesmer bound %d exist" c gb
            else
              let d = min_distance g in
              if d < e.md then fail "minimum distance %d < %d" d e.md
              else Ok ()

(* ---------- the checker's own test ---------- *)

let hamming74 = "1000110\n0100101\n0010011\n0001111"
let ext_hamming84 = "10001101\n01001011\n00100111\n00011110"
let repetition5 = "11111"

let selftest () =
  let expect ~k ~c ~md =
    { k; c; md; pins = []; griesmer = true }
  in
  let accepts name e m =
    match check e m with
    | Ok () -> Ok ()
    | Error msg -> Error (Printf.sprintf "%s rejected: %s" name msg)
  in
  let rejects name e m =
    match check e m with
    | Ok () -> Error (name ^ " accepted")
    | Error _ -> Ok ()
  in
  let distance name m d =
    match parse m with
    | Ok g when min_distance g = d -> Ok ()
    | Ok g -> Error (Printf.sprintf "%s: distance %d, not %d" name (min_distance g) d)
    | Error msg -> Error msg
  in
  (* flipping P(0,0) of Hamming (7,4) leaves the data-0 codeword of
     weight 2 *)
  let mutated = "1000010\n0100101\n0010011\n0001111" in
  let results =
    [
      distance "hamming (7,4)" hamming74 3;
      distance "extended hamming (8,4)" ext_hamming84 4;
      distance "repetition (5,1)" repetition5 5;
      distance "repetition (3,1)" "111" 3;
      accepts "hamming (7,4)" (expect ~k:4 ~c:3 ~md:3) hamming74;
      accepts "extended hamming (8,4)" (expect ~k:4 ~c:4 ~md:4) ext_hamming84;
      accepts "repetition (5,1)" (expect ~k:1 ~c:4 ~md:5) repetition5;
      rejects "mutated hamming (7,4)" (expect ~k:4 ~c:3 ~md:3) mutated;
      rejects "hamming (7,4) asked for d=4" (expect ~k:4 ~c:3 ~md:4) hamming74;
      rejects "non-systematic" (expect ~k:4 ~c:3 ~md:3)
        "0100110\n1000101\n0010011\n0001111";
      rejects "wrong shape" (expect ~k:4 ~c:4 ~md:3) hamming74;
      rejects "wrong pin"
        { (expect ~k:4 ~c:3 ~md:3) with pins = [ (0, 4, false) ] }
        hamming74;
      accepts "right pin"
        { (expect ~k:4 ~c:3 ~md:3) with pins = [ (0, 4, true); (3, 4, true) ] }
        hamming74;
      (if griesmer_check_len ~k:4 ~d:7 = 10 && griesmer_check_len ~k:4 ~d:8 = 11
       then Ok ()
       else Error "Griesmer bound for k=4, d=7/8 is not c=10/11");
      rejects "above the Griesmer bound" (expect ~k:4 ~c:4 ~md:3)
        "10001100\n01001010\n00100110\n00011110";
    ]
  in
  match List.filter_map (function Error m -> Some m | Ok () -> None) results with
  | [] -> Ok (List.length results)
  | errs -> Error (String.concat "; " errs)
