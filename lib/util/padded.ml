let line_words = 8
let first = line_words
let stride = 2 * line_words
let index c = first + (stride * c)
let length n = index n
let make n v = Array.make (length n) v
let cells a = (Array.length a - first) / stride

external get : int array -> int -> int = "bw_padded_get" [@@noalloc]
external set : int array -> int -> int -> unit = "bw_padded_set" [@@noalloc]

external fetch_and_add : int array -> int -> int -> int
  = "bw_padded_fetch_add"
[@@noalloc]
