(** Binary (de)serialization for page payloads. *)

module type CODEC = sig
  type t

  val encode : Buffer.t -> t -> unit
  val decode : string -> pos:int ref -> t
end

let encode_int buf (v : int) =
  Buffer.add_int64_le buf (Int64.of_int v)

let decode_int s ~pos =
  if !pos + 8 > String.length s then failwith "Codec: truncated int";
  let v = Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string s) !pos) in
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
