package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"archcontest/internal/experiments"
	"archcontest/internal/explore"
	"archcontest/internal/obs"
	"archcontest/internal/resultcache"
	"archcontest/internal/spec"
	"archcontest/internal/trace"
	"archcontest/internal/workload"
)

// The campaign workload reproduces the paper the way cmd/figures does.
// Each round runs every registered experiment through spec.Execute against
// a fresh on-disk result cache (cold), then the same sweep in a fresh Env
// on the filled cache (warm), then one explore anneal with the fast-model
// filter on. The experiments Lab and the result cache do most of the work:
// puts dominate the cold pass and gets the warm one, so an engine speed-up
// should leave the warm pass unchanged. explore and fastmodel run only
// here. The seed sets the campaign's trace length; the anneal's trace and
// walk are fixed, because its work varies by a sixth between walk seeds.

// campaignParallelism bounds concurrent leaf simulations, as cmd/figures
// does on a two-CPU host.
const campaignParallelism = 2

// timedStore wraps the result cache's blob tier to count and time every
// Get and Put the cache makes below its in-memory tier.
type timedStore struct {
	resultcache.Store
	rec    atomic.Pointer[recorder]
	parent atomic.Int64

	gets, puts, putBytes atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, error) {
	rec := s.rec.Load()
	id := rec.begin(int(s.parent.Load()), "resultcache", "Store.Get", "")
	blob, err := s.Store.Get(key)
	rec.end(id)
	s.gets.Add(1)
	return blob, err
}

func (s *timedStore) Put(key string, blob []byte) error {
	rec := s.rec.Load()
	id := rec.begin(int(s.parent.Load()), "resultcache", "Store.Put", "")
	err := s.Store.Put(key, blob)
	rec.end(id)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(blob)))
	return err
}

// leafLayer maps an artifact-log span kind to the layer that did the work.
var leafLayer = map[string]string{
	"trace":         "workload",
	"run":           "sim",
	"eval":          "sim",
	"contest":       "contest",
	"contest-batch": "contest",
}

// sweepResult is what one pass over the experiment registry produced.
type sweepResult struct {
	tables []byte
	stats  experiments.CampaignStats
	cache  resultcache.Stats
	wall   float64
	// experiments holds each experiment's wall; runLeaves and contestLeaves
	// each single-run and contest leaf the Lab executed, named "kind
	// name#k" for the k-th occurrence of a name in the pass.
	experiments, runLeaves, contestLeaves []namedWall
	busy                                  float64 // summed wall of every leaf
}

type namedWall struct {
	name string
	wall float64
}

// importLeaves copies the artifact-log spans recorded since *seen into the
// recorder as children of parent, and returns them.
func importLeaves(rec *recorder, parent int, log *obs.ArtifactLog, seen *int, req string) []obs.Span {
	spans := log.Spans()[*seen:]
	for _, s := range spans {
		rec.add(parent, leafLayer[s.Kind], s.Kind+" "+s.Name, req, s.Start, s.End)
	}
	*seen += len(spans)
	return spans
}

// sweep runs every experiment once in a fresh Env over store.
func (b *bench) sweep(ctx context.Context, specs []spec.Spec, store *timedStore, rec *recorder, root int, pass string) (sweepResult, error) {
	cache := resultcache.New(store, resultcache.Options{})
	env := spec.NewEnv(cache)
	env.Parallelism = campaignParallelism
	env.Artifacts = obs.NewArtifactLog()
	var stats func() experiments.CampaignStats
	hooks := spec.Hooks{Campaign: func(f func() experiments.CampaignStats) { stats = f }}
	var res sweepResult
	var tables bytes.Buffer
	seen := 0
	occurrences := map[string]int{}
	start := time.Now()
	for _, sp := range specs {
		req := pass + "/" + sp.Experiment
		id := rec.begin(root, "experiments", "Execute "+sp.Experiment, req)
		store.parent.Store(int64(id))
		t := time.Now()
		out, err := spec.Execute(ctx, sp, env, hooks)
		res.experiments = append(res.experiments, namedWall{sp.Experiment, time.Since(t).Seconds()})
		store.parent.Store(0)
		rec.end(id)
		b.check(err == nil, "%s %s: %v", pass, sp.Experiment, err)
		if err != nil {
			return res, fmt.Errorf("%s %s: %w", pass, sp.Experiment, err)
		}
		out.Table.Fprint(&tables)
		for _, s := range importLeaves(rec, id, env.Artifacts, &seen, req) {
			name := s.Kind + " " + s.Name
			leaf := fmt.Sprintf("%s#%d", name, occurrences[name])
			occurrences[name]++
			switch leafLayer[s.Kind] {
			case "sim":
				res.runLeaves = append(res.runLeaves, namedWall{leaf, s.End.Sub(s.Start).Seconds()})
			case "contest":
				res.contestLeaves = append(res.contestLeaves, namedWall{leaf, s.End.Sub(s.Start).Seconds()})
			}
		}
	}
	res.wall = time.Since(start).Seconds()
	for _, s := range env.Artifacts.Spans() {
		res.busy += s.End.Sub(s.Start).Seconds()
	}
	res.tables = tables.Bytes()
	res.stats = stats()
	res.cache = cache.Stats()
	return res, nil
}

func runCampaign(ctx context.Context, b *bench) error {
	n := b.p.campaignN + b.p.campaignNStep*int(b.seed%16)
	var specs []spec.Spec
	var exploreTrace *trace.Trace
	err := b.setup(func() error {
		specs = specs[:0]
		for _, id := range experiments.RegistryOrder {
			sp := spec.Spec{Kind: spec.KindExperiment, Experiment: id, N: n, LatencyNs: 1, Pairs: 3}
			if err := sp.Validate(); err != nil {
				return err
			}
			specs = append(specs, sp)
		}
		p, err := workload.ProfileFor("gcc")
		if err != nil {
			return err
		}
		exploreTrace, err = workload.Generate(p, b.p.exploreN)
		return err
	})
	if err != nil {
		return err
	}

	var first []byte
	var idle []float64
	var hits, lookups int64
	err = b.rounds(func(r int, rec *recorder, root int) error {
		dir, err := os.MkdirTemp(filepath.Join(b.workdir, "tmp"), "campaign-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		disk, err := resultcache.NewDiskStore(dir)
		if err != nil {
			return err
		}
		store := &timedStore{Store: disk}
		store.rec.Store(rec)

		// A kernel sample between the phases calibrates each with samples
		// taken next to it; a round lasts several seconds.
		cold, err := b.sweep(ctx, specs, store, rec, root, fmt.Sprintf("r%d/cold", r))
		if err != nil {
			return err
		}
		if rec == nil {
			for _, e := range cold.experiments {
				b.add(&b.ops, "cold "+e.name, e.wall)
			}
			for _, leaf := range cold.runLeaves {
				b.add(&b.singles, leaf.name, leaf.wall)
			}
			for _, leaf := range cold.contestLeaves {
				b.add(&b.contests, leaf.name, leaf.wall)
			}
		}
		b.mark()
		warm, err := b.sweep(ctx, specs, store, rec, root, fmt.Sprintf("r%d/warm", r))
		if err != nil {
			return err
		}
		if rec == nil {
			b.add(&b.ops, "warm", warm.wall)
		}
		b.mark()
		b.check(bytes.Equal(cold.tables, warm.tables), "round %d: warm tables differ from cold ones", r)
		warmLeaves := warm.stats.Simulations + warm.stats.Contests
		b.check(warmLeaves == 0, "round %d: the warm pass executed %d leaves", r, warmLeaves)

		log := obs.NewArtifactLog()
		id := rec.begin(root, "explore", "Customize", fmt.Sprintf("r%d/explore", r))
		t := time.Now()
		ex, err := explore.Customize(ctx, exploreTrace, explore.Options{
			Seed: 1, Steps: b.p.exploreSteps, FastFilter: true,
			Parallelism: campaignParallelism, Log: log,
		})
		exploreWall := time.Since(t).Seconds()
		rec.end(id)
		seen := 0
		importLeaves(rec, id, log, &seen, fmt.Sprintf("r%d/explore", r))
		b.check(err == nil && ex.BestIPT > 0, "round %d: explore: %v (best IPT %v)", r, err, ex.BestIPT)
		if err != nil {
			return fmt.Errorf("explore: %w", err)
		}

		h := sha256.New()
		h.Write(cold.tables)
		hashJSON(h, ex)
		sum := h.Sum(nil)
		if first == nil {
			first = sum
			m := b.layer
			m["experiments.leaf_sims"] = float64(cold.stats.Simulations)
			m["experiments.leaf_contests"] = float64(cold.stats.Contests)
			m["experiments.warm_leaf_execs"] = float64(warmLeaves)
			m["resultcache.gets"] = float64(store.gets.Load())
			m["resultcache.puts"] = float64(store.puts.Load())
			m["resultcache.put_bytes"] = float64(store.putBytes.Load())
			m["explore.detailed_sims"] = float64(ex.Detailed)
			m["explore.fast_filtered"] = float64(ex.Filtered)
			m["fastmodel.filter_ratio"] = float64(ex.Filtered) / float64(ex.Filtered+ex.Detailed)
			m["explore.best_ipt"] = ex.BestIPT
			b.singleInsts = float64(cold.stats.Simulations) * float64(n)
			b.contestInsts = float64(cold.stats.Contests) * float64(n)
		} else {
			b.check(bytes.Equal(sum, first), "round %d results differ from round 0", r)
		}
		idle = append(idle, 1-cold.busy/(cold.wall*campaignParallelism))
		hits += cold.cache.Hits + warm.cache.Hits
		lookups += cold.cache.Hits + cold.cache.Misses + warm.cache.Hits + warm.cache.Misses
		if rec == nil {
			b.add(&b.ops, "explore", exploreWall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.digest = first
	// One operation is one round: every experiment cold, the warm sweep and
	// the anneal, each at its median calibrated time across untraced rounds.
	b.op, b.opSamples = timed{b.ops.total(true), b.ops.total(false)}, b.roundWalls
	b.measureHeap()
	b.layer["experiments.worker_idle_ratio"] = median(idle)
	b.layer["resultcache.hit_ratio"] = float64(hits) / float64(lookups)
	if b.rec != nil {
		return b.probeLayers(ctx)
	}
	return nil
}
