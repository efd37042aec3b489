"""The former integer lattice routines of ``partfan.groups``, kept as oracles.

``partfan.groups`` now reduces every relator matrix with one least-pivot
``smith_normal_form`` and decides row-lattice membership by comparing the
invariant factors of the lattice with and without the vector.  These are
the routines that replaced, copied unchanged:

- ``smith_normal_form``: a pivot moved to the leading corner, its row and
  column cleared by repeated division, and a final gcd/lcm pass that puts
  the diagonal in divisibility order;
- ``_hermite_rows`` and ``in_row_lattice``: a row Hermite form, and
  membership by reducing the vector along its pivots.

Their coefficients can grow without bound on larger matrices, so the
tests run them on small ones only.
"""


def smith_normal_form(matrix):
    """Diagonal of the Smith normal form of an integer matrix."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        pivot = None
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[c], row[pj] = row[pj], row[c]
        dirty = True
        while dirty:
            dirty = False
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        dirty = True
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        dirty = True
        # pivot now divides everything in its row/column; clear and recurse
        entry = abs(m[r][c])
        rest_dirty = False
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                if m[i][j] % entry:
                    m[r] = [a + b for a, b in zip(m[r], m[i])]
                    rest_dirty = True
                    break
            if rest_dirty:
                break
        if rest_dirty:
            continue
        diag.append(entry)
        r += 1
        c += 1
    # normalize divisibility d1 | d2 | ...
    from math import gcd

    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def _hermite_rows(matrix):
    """Row-style Hermite form used for integer row-lattice membership."""
    m = [list(row) for row in matrix if any(row)]
    if not m:
        return []
    cols = len(m[0])
    out = []
    col = 0
    while m and col < cols:
        candidates = [row for row in m if row[col] != 0]
        if not candidates:
            col += 1
            continue
        while True:
            candidates.sort(key=lambda row: abs(row[col]))
            pivot = candidates[0]
            done = True
            for row in candidates[1:]:
                q = row[col] // pivot[col]
                for j in range(cols):
                    row[j] -= q * pivot[j]
                if row[col]:
                    done = False
            candidates = [row for row in candidates if row[col] != 0]
            if done or len(candidates) == 1:
                break
        pivot = candidates[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        m = [row for row in m if row is not pivot and any(row)]
        for row in m:
            if row[col] % pivot[col] == 0 and row[col] != 0:
                q = row[col] // pivot[col]
                for j in range(cols):
                    row[j] -= q * pivot[j]
        m = [row for row in m if any(row)]
        col += 1
    return out


def in_row_lattice(vector, matrix):
    """Whether an integer vector lies in the integer row span of the matrix."""
    rows = [list(r) for r in matrix if any(r)]
    v = list(vector)
    if not any(v):
        return True
    if not rows:
        return False
    hermite = _hermite_rows(rows)
    cols = len(v)
    for row in hermite:
        lead = next(j for j in range(cols) if row[j] != 0)
        if v[lead] % row[lead] == 0:
            q = v[lead] // row[lead]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
