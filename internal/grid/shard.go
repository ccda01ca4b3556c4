package grid

// Shard planning: the API the distributed sweep fabric (internal/fabric,
// cmd/sweepfront) uses to split one compiled plan into contiguous
// row-range shards that workers execute independently. Two properties
// carry the whole design:
//
//   - Contiguity in plan order. A shard is a half-open [Start, End) span
//     of the plan's surviving rows, so concatenating shard outputs in
//     Start order reproduces the single-node row stream byte for byte —
//     the merge step is ordering, not recomputation.
//
//   - Batch-unit alignment. Cuts never split a run of consecutive rows
//     that differ only in their outage (the PR-6 batch units), so a
//     worker evaluating a shard sees the same units a single-node run
//     would and the outage-axis kernel stays fully effective inside
//     every shard.
//
// A RowRange is also the resume token: when a worker dies after
// streaming a validated prefix of its shard, the coordinator re-dispatches
// the narrower range [watermark, End) — same spec, same plan, fewer rows —
// which is why the range rides the wire (POST /v1/sweep "row_range")
// instead of living only in coordinator memory.

// RowRange is a half-open, contiguous span [Start, End) of a compiled
// plan's rows, identified by their Point.Index values. It is the unit of
// distribution for the sweep fabric and the wire shape of a shard
// (and of a mid-shard resume after a worker failure).
type RowRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Rows is the number of rows the range spans.
func (r RowRange) Rows() int { return r.End - r.Start }

// DefaultShardRows is the target shard size when a caller does not say
// otherwise, and the floor of the fabric's plan-scaled shard size: small
// enough that a typical figure grid still splits across a handful of
// workers. A shard's fixed cost is one HTTP round trip plus a
// CompileRange, which materializes only the shard's rows but still walks
// the whole cross product to count and filter them — so the fabric
// grows shards with the plan rather than leaning on this constant.
const DefaultShardRows = 64

// Shards splits the plan into contiguous row ranges of about shardRows
// rows each (0 or negative means DefaultShardRows), covering every row
// exactly once, in order. The plan goes out as k = ceil(rows/shardRows)
// shards of even size: cut i lands on the batch-unit boundary nearest
// i·rows/k. A maximal run of consecutive rows that differ only in outage
// always lands in one shard, so the outage-axis batch kernel is as
// effective per shard as it is on a single node. A unit longer than a
// shard's share is never split, so it can leave fewer, larger shards.
func (p *Plan) Shards(shardRows int) []RowRange {
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	n := len(p.Points)
	if n == 0 {
		return nil
	}
	k := (n + shardRows - 1) / shardRows
	base := p.Points[0].Index
	units := groupUnits(p.Points, false)
	shards := make([]RowRange, 0, k)
	start, end, u := 0, 0, 0 // offsets: open shard start, end of units[:u]
	for i := 1; i < k; i++ {
		target := i * n / k
		// Advance to the unit boundary nearest target, past start.
		for u < len(units) && (end <= start || abs(end+len(units[u])-target) < abs(end-target)) {
			end += len(units[u])
			u++
		}
		if end <= start || end >= n {
			break
		}
		shards = append(shards, RowRange{Start: base + start, End: base + end})
		start = end
	}
	return append(shards, RowRange{Start: base + start, End: base + n})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Slice returns the sub-plan covering r: the same op over the shared
// backing rows, indices preserved (a sliced row keeps the Index the full
// plan gave it, which is what keeps shard outputs mergeable and lets the
// coordinator validate stream contiguity). The range must lie inside the
// plan and be non-empty; violations are typed *FieldError rejections so
// the HTTP surface maps them to a 400 like any other bad request field.
func (p *Plan) Slice(r RowRange) (*Plan, error) {
	if err := checkRange(r, len(p.Points)); err != nil {
		return nil, err
	}
	return &Plan{Op: p.Op, Points: p.Points[r.Start:r.End]}, nil
}

// checkRange rejects a row range that is empty or reaches outside a
// plan of rows rows.
func checkRange(r RowRange, rows int) error {
	if r.Start < 0 || r.End > rows || r.Start >= r.End {
		return fieldErrf("out_of_range", "row_range",
			"row range [%d, %d) outside the plan's %d rows", r.Start, r.End, rows)
	}
	return nil
}
