val included : int -> int
