(** Binary (de)serialization for page payloads. *)

module type CODEC = sig
  type t

  val encode : Buffer.t -> t -> unit
  val decode : string -> pos:int ref -> t
end

let encode_int buf (v : int) =
  Buffer.add_int64_le buf (Int64.of_int v)

(* Canonical: a field outside OCaml's 63-bit int range is refused, not
   wrapped by [Int64.to_int] (which drops bit 63), so every accepted
   field re-encodes to the bytes it was read from. *)
let decode_int s ~pos =
  if !pos + 8 > String.length s then failwith "Codec: truncated int";
  let v64 = String.get_int64_le s !pos in
  let v = Int64.to_int v64 in
  if not (Int64.equal (Int64.of_int v) v64) then
    failwith "Codec: int out of range";
  pos := !pos + 8;
  v

let encode_string buf s =
  encode_int buf (String.length s);
  Buffer.add_string buf s

let decode_string s ~pos =
  let len = decode_int s ~pos in
  if len < 0 || len > String.length s - !pos then
    failwith "Codec: truncated string";
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

module Int : CODEC with type t = int = struct
  type t = int

  let encode = encode_int
  let decode = decode_int
end

module String : CODEC with type t = string = struct
  type t = string

  let encode = encode_string
  let decode = decode_string
end
