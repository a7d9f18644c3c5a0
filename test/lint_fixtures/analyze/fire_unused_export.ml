let called x = x + 1
let uncalled x = x * 2
