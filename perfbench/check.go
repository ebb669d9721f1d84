package main

// check.go — the correctness gate. Every job's results body must be
// byte-identical to an in-process reference built with the emitters bccd
// itself uses (service.RunSweep/RunRegionBatch/RunCampaign into a
// service.NewResultLog) for the same spec and cache mode. Separately, the
// objective column of each workload's first job at the default seed must
// match a committed digest to 1e-9: an LP that flips to another optimal
// vertex at a degenerate point passes, objective drift fails.

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"bicoop"
	"bicoop/internal/service"
)

// reference writes the results CSV job must produce. Cache-enabled engines
// solve every miss cold, so the cached-mode reference is a fresh cache.
func reference(ctx context.Context, j job, cached bool, w io.Writer) error {
	var opts []bicoop.Option
	if cached {
		opts = append(opts, bicoop.WithCache(1<<16))
	}
	eng := bicoop.NewEngine(opts...)
	log := service.NewResultLog(w)
	var err error
	switch {
	case j.sweep != nil:
		err = service.RunSweep(ctx, eng, *j.sweep, log)
	case j.region != nil:
		err = service.RunRegionBatch(ctx, eng, *j.region, log)
	default:
		err = service.RunCampaign(ctx, eng, *j.campaign, log)
	}
	if ferr := log.Flush(); err == nil {
		err = ferr
	}
	return err
}

// checker compares result bodies against references, computing each
// distinct job's reference once.
type checker struct {
	cached bool
	refs   map[int][sha256.Size]byte
}

func newChecker(cached bool) *checker {
	return &checker{cached: cached, refs: make(map[int][sha256.Size]byte)}
}

func (c *checker) check(ctx context.Context, j job, got [sha256.Size]byte) error {
	want, ok := c.refs[j.ref]
	if !ok {
		h := sha256.New()
		if err := reference(ctx, j, c.cached, h); err != nil {
			return fmt.Errorf("reference for job %d: %w", j.ref, err)
		}
		copy(want[:], h.Sum(nil))
		c.refs[j.ref] = want
	}
	if got != want {
		return fmt.Errorf("job %d: results differ from the in-process reference", j.ref)
	}
	return nil
}

// campaignTrials sums the trials rows of a campaign CSV: the blocks the
// campaign reports having run.
func campaignTrials(body []byte) (int, error) {
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n")[1:] {
		f := strings.Split(line, ",")
		if len(f) == 4 && f[1] == "trials" {
			n, err := strconv.Atoi(f[3])
			if err != nil {
				return 0, fmt.Errorf("campaign trials row %q: %w", line, err)
			}
			total += n
		}
	}
	return total, nil
}

// objectives extracts the objective values of a results CSV: the sum
// column of a sweep, each curve's maximum Ra+Rb over its vertices for a
// region batch, and the value column of a campaign.
func objectives(j job, body []byte) ([]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var out []float64
	curve := ""
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		var col []int
		switch {
		case j.sweep != nil && len(f) == 10:
			col = []int{9}
		case j.region != nil && len(f) == 7:
			col = []int{5, 6}
		case j.campaign != nil && len(f) == 4:
			col = []int{3}
		default:
			return nil, fmt.Errorf("malformed results row %q", line)
		}
		v := 0.0
		for _, c := range col {
			x, err := strconv.ParseFloat(f[c], 64)
			if err != nil {
				return nil, fmt.Errorf("results row %q: %w", line, err)
			}
			v += x
		}
		if j.region != nil {
			if key := f[0] + "," + f[1]; key != curve {
				curve = key
				out = append(out, v)
				continue
			}
			out[len(out)-1] = math.Max(out[len(out)-1], v)
			continue
		}
		out = append(out, v)
	}
	return out, nil
}

// digest summarizes an objective vector: its length, sum, sum of squares
// and index-weighted sum, which together catch a drifted or reordered value.
type digest struct {
	N      int     `json:"n"`
	Sum    float64 `json:"sum"`
	SumSq  float64 `json:"sum_sq"`
	Moment float64 `json:"moment"`
}

func digestOf(vals []float64) digest {
	d := digest{N: len(vals)}
	for i, v := range vals {
		d.Sum += v
		d.SumSq += v * v
		d.Moment += float64(i+1) * v
	}
	return d
}

func (d digest) matches(want digest) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	return d.N == want.N && near(d.Sum, want.Sum) && near(d.SumSq, want.SumSq) && near(d.Moment, want.Moment)
}

//go:embed digests.json
var committedDigests []byte

func digestKey(w workload, tiny bool) string {
	if tiny {
		return "tiny/" + w.name
	}
	return w.name
}

// firstJobDigest computes the digest of w's first job at the default seed.
func firstJobDigest(ctx context.Context, w workload, sz size) (digest, error) {
	j := w.next(newGenerator(defaultSeed, sz), 0)
	var buf bytes.Buffer
	if err := reference(ctx, j, w.cached, &buf); err != nil {
		return digest{}, err
	}
	vals, err := objectives(j, buf.Bytes())
	if err != nil {
		return digest{}, err
	}
	return digestOf(vals), nil
}

// checkDigest gates w's first default-seed job on the committed digest.
func checkDigest(ctx context.Context, w workload, sz size, tiny bool) error {
	var all map[string]digest
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return fmt.Errorf("committed digests: %w", err)
	}
	want, ok := all[digestKey(w, tiny)]
	if !ok {
		return fmt.Errorf("no committed digest for %s", digestKey(w, tiny))
	}
	got, err := firstJobDigest(ctx, w, sz)
	if err != nil {
		return err
	}
	if !got.matches(want) {
		return fmt.Errorf("%s: objective digest %+v, committed %+v", digestKey(w, tiny), got, want)
	}
	return nil
}

// writeDigests regenerates the committed digest file.
func writeDigests(ctx context.Context, path string) error {
	all := make(map[string]digest)
	for _, w := range workloads {
		for _, tiny := range []bool{false, true} {
			sz := fullSize
			if tiny {
				sz = tinySize
			}
			d, err := firstJobDigest(ctx, w, sz)
			if err != nil {
				return err
			}
			all[digestKey(w, tiny)] = d
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
