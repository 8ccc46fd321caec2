#!/usr/bin/env bash
# List the functions and methods that no program of the module links: code
# whose only callers are tests, or that nothing calls at all.
#
# Usage: scripts/unreached.sh
#
# Builds every main package (cmd/*, examples/*, wadcbench) with inlining off
# (-gcflags=all=-l, so an inlined call still leaves its callee's symbol),
# collects the module's symbols in those binaries with `go tool nm`, and
# prints, per package, every function or method declared in a non-test file
# of a non-main package that none of the binaries contains. The linker drops
# unreachable code, so a declared name missing from every binary is reached
# by no program. Methods count as linked when either the value or the pointer
# form is; init functions and closures are not listed.
#
# A report for reviewers, not a gate: some survivors are deliberate (test
# oracles and fixtures, accessors tests read behaviour through, kernel API
# the kernel-program golden drives). Needs go and python3 (stdlib only).
set -euo pipefail

cd "$(dirname "$0")/.."
module="$(go list -m)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mains=()
while read -r name path; do
  if [ "$name" = main ]; then mains+=("$path"); fi
done < <(go list -f '{{.Name}} {{.ImportPath}}' ./...)
for pkg in "${mains[@]}"; do
  go build -gcflags=all=-l -o "$tmp/bin/${pkg//\//_}" "$pkg"
done
for bin in "$tmp"/bin/*; do
  go tool nm "$bin"
done | awk -v p="$module/" '$2 == "T" { s = $0; sub(/^ *[0-9a-f]+ T /, "", s); if (index(s, p) == 1) print s }' \
  | sort -u > "$tmp/linked"

go list -f '{{if ne .Name "main"}}{{$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$d}}/{{.}}{{end}}{{end}}' ./... \
  > "$tmp/packages"

python3 - "$tmp/linked" "$tmp/packages" <<'EOF'
import re, sys

def norm(sym):
    # Type arguments (which may nest brackets) and the pointer receiver form
    # do not matter here.
    while True:
        bare = re.sub(r"\[[^\[\]]*\]", "", sym)
        if bare == sym:
            return sym.replace("(*", "").replace(")", "")
        sym = bare

linked = {norm(s.strip()) for s in open(sys.argv[1])}
decl = re.compile(r"^func\s+(?:\(\s*(?:\w+\s+)?\*?\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)")
count = 0
for line in open(sys.argv[2]):
    fields = line.split()
    if not fields:
        continue
    pkg, files = fields[0], fields[1:]
    missing = []
    for path in files:
        for n, src in enumerate(open(path, encoding="utf-8"), 1):
            m = decl.match(src)
            if not m or m.group(2) in ("init", "_"):
                continue
            recv, name = m.group(1), m.group(2)
            sym = f"{pkg}.{recv}.{name}" if recv else f"{pkg}.{name}"
            if sym not in linked:
                short = f"{recv}.{name}" if recv else name
                missing.append(f"  {short}  ({path.rsplit('/', 1)[-1]}:{n})")
    if missing:
        print(pkg)
        print("\n".join(missing))
        count += len(missing)
print(f"{count} unreached functions and methods")
EOF
