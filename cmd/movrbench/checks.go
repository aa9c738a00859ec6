package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/server"
)

// goldenJSON holds, per workload, the SHA-256 digests of the first
// goldenJobs results at seed 1. Regenerate with -write-golden after a
// change that is meant to alter results.
//
//go:embed testdata/golden.json
var goldenJSON []byte

const goldenJobs = 8

// goldenFor returns the golden digests a run must reproduce: those of its
// workload at seed 1, and at any other seed the set-up job's, which every
// seed shares.
func goldenFor(workload string, seed int64) []string {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil || len(g[workload]) == 0 {
		return nil
	}
	if seed != 1 {
		return g[workload][:1]
	}
	return g[workload]
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fleetDigest is the SHA-256 of a fleet result's JSON encoding. Encoding
// fails on a NaN or infinite value, so a digest also proves every value
// finite.
func fleetDigest(res movr.FleetResult) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return sha256Hex(raw), nil
}

// checkFleet applies the invariants every fleet result must hold: the
// session count matches the specs, and every frame was either delivered
// or glitched, fleet-wide and per session.
func checkFleet(res movr.FleetResult, sessions int) error {
	a := res.Agg
	if a.Sessions != sessions {
		return fmt.Errorf("%d sessions in the result, %d specs", a.Sessions, sessions)
	}
	if a.Frames != a.Delivered+a.Glitches || a.Frames <= 0 {
		return fmt.Errorf("frames %d != delivered %d + glitches %d", a.Frames, a.Delivered, a.Glitches)
	}
	for _, s := range res.Sessions {
		if r := s.Report; r.Frames != r.Delivered+r.Glitches {
			return fmt.Errorf("session %s: frames %d != delivered %d + glitches %d", s.ID, r.Frames, r.Delivered, r.Glitches)
		}
	}
	return nil
}

// jobView is the part of movrd's job document the benchmark reads.
type jobView struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Cached     bool            `json:"cached"`
	Coalesced  string          `json:"coalesced_with"`
	Error      string          `json:"error"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Result     json.RawMessage `json:"result"`
	ResultSHA  string          `json:"result_sha256"`
}

// viewDigest verifies a finished job's view: the job is done, and the
// result bytes on the wire hash to the result_sha256 the daemon reports.
// It returns that digest.
func viewDigest(v jobView) (string, error) {
	if v.State != string(server.StateDone) {
		return "", fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, v.Result); err != nil {
		return "", fmt.Errorf("job %s: result: %w", v.ID, err)
	}
	if d := sha256Hex(compact.Bytes()); d != v.ResultSHA {
		return "", fmt.Errorf("job %s: result hashes to %s, the daemon says %s", v.ID, d, v.ResultSHA)
	}
	return v.ResultSHA, nil
}

// resultFrames checks a job result holds the fleet invariants for the
// expected session count (0 for jobs without a fleet) and returns its
// frame count.
func resultFrames(v jobView, sessions int) (int, error) {
	if sessions == 0 {
		return 0, nil
	}
	var p struct {
		Fleet *fleet.Result `json:"fleet"`
	}
	if err := json.Unmarshal(v.Result, &p); err != nil || p.Fleet == nil {
		return 0, fmt.Errorf("job %s: no fleet result", v.ID)
	}
	if err := checkFleet(*p.Fleet, sessions); err != nil {
		return 0, fmt.Errorf("job %s: %w", v.ID, err)
	}
	return p.Fleet.Agg.Frames, nil
}

// inProcess executes a job spec on a fresh in-process server through its
// HTTP handler (POST /v1/jobs?wait=1), the reference the daemon's bytes
// are checked against.
func inProcess(body []byte) (jobView, error) {
	srv, err := server.New(server.Options{Workers: 2})
	if err != nil {
		return jobView{}, err
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
	var v jobView
	if rec.Code != http.StatusOK {
		return v, fmt.Errorf("in-process job: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	err = json.Unmarshal(rec.Body.Bytes(), &v)
	return v, err
}

// writeGolden recomputes every workload's first results at seed 1 —
// offline jobs through RunFleetCollect, daemon specs in-process — and
// writes their digests.
func writeGolden(path string) error {
	g := map[string][]string{}
	for _, w := range workloads {
		stream := newSpecStream(w.name, 1)
		for k := 0; k < goldenJobs; k++ {
			var d string
			if w.offline {
				r := &offlineRun{o: options{seed: 1}, w: w}
				j, err := r.runPlain(k)
				if err != nil {
					return err
				}
				if d, err = fleetDigest(j.result); err != nil {
					return err
				}
			} else {
				spec := stream.at(k)
				v, err := inProcess(spec.body)
				if err != nil {
					return err
				}
				if d, err = viewDigest(v); err != nil {
					return err
				}
				if _, err = resultFrames(v, spec.sessions); err != nil {
					return err
				}
			}
			g[w.name] = append(g[w.name], d)
		}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
