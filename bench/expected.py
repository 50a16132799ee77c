"""
Answers recorded from the program at the commit that introduced this
benchmark, for the requests that have no closed form.  They hold counts
and output hashes only: `nodes_explored` is left out on purpose, because a
better-pruning search is allowed to change it.
"""

#: `count` answers; a spec and its complement share the count
COUNTS = {
    "1234": 26928,
    "2413": 27797,
    "rows 132, symbols 123": 5,
}

#: `wilf --length 4 --order 5`: avoiders of each length-4 pattern at order 5
WILF_4_5 = {
    "1234": 26928, "1243": 26639, "1324": 24395, "1342": 26616, "1423": 26492,
    "1432": 26798, "2134": 26639, "2143": 27067, "2314": 26492, "2341": 26798,
    "2413": 27797, "2431": 26616, "3124": 26616, "3142": 27797, "3214": 26798,
    "3241": 26492, "3412": 27067, "3421": 26639, "4123": 26798, "4132": 26492,
    "4213": 26616, "4231": 24395, "4312": 26639, "4321": 26928,
}

#: sha256 of the stdout of `lambda --order 5 --exhaustive` (value 3 and its
#: lexicographically first witness)
LAMBDA_5_SHA256 = "7dc2d03dfc79710e488ba7c4b66e410667f1b6f93ada3682ac16b788a7fe375c"

#: sha256 of the stdout of `enumerate --order 5`: all 161,280 squares, one
#: JSON line each, in lexicographic order
ENUMERATE_5_SHA256 = "8ba4bd79604dc07ff386ecf08a29bb1cea3500fb2ec63f4a4b3006ad072b16a6"
