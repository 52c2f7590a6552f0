; li with an immediate wider than its 54-bit field: assembles, but has
; no binary encoding, so --record-log must refuse the program.
li r1, 9007199254740993
halt
