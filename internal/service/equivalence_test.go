package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"dise"
	"dise/internal/artifacts"
)

// TestServiceChainMatchesInProcessSession is the warm-path equivalence gate
// of the acceptance criteria: a version chain driven through the HTTP API
// yields byte-identical Result payloads — paths, affected sets, core and
// solver/memo stats — to the same chain driven through Session.Advance
// in-process, on all three artifacts. The only field excluded is wall-clock
// time (time_ms), which is zeroed on both sides before the byte comparison:
// it reports when the run happened, not what it computed.
func TestServiceChainMatchesInProcessSession(t *testing.T) {
	ctx := context.Background()
	for _, art := range artifacts.All() {
		art := art
		t.Run(art.Name, func(t *testing.T) {
			// A fresh service per chain so the shared caches see exactly the
			// request sequence the in-process reference analyzer sees.
			_, srv := newTestServer(t, Config{})
			ref := dise.NewAnalyzer()

			srcs := []string{art.Base}
			for _, v := range art.Versions {
				srcs = append(srcs, art.SourceFor(v))
			}

			var created CreateSessionResponse
			status, code := post(t, srv.Client(), srv.URL+"/v1/sessions",
				CreateSessionRequest{Tenant: "gate", InitialSrc: srcs[0], Proc: art.Proc}, &created)
			if status != http.StatusCreated {
				t.Fatalf("create: status %d code %q", status, code)
			}
			sess, err := ref.NewSession(ctx, dise.SessionRequest{InitialSrc: srcs[0], Proc: art.Proc})
			if err != nil {
				t.Fatal(err)
			}

			for i := 1; i < len(srcs); i++ {
				var got ResultPayload
				status, code := post(t, srv.Client(), srv.URL+"/v1/sessions/"+created.SessionID+"/advance",
					AdvanceRequest{Tenant: "gate", NextSrc: srcs[i]}, &got)
				if status != http.StatusOK {
					t.Fatalf("step %d: HTTP advance: status %d code %q", i, status, code)
				}
				res, err := sess.Advance(ctx, srcs[i])
				if err != nil {
					t.Fatalf("step %d: in-process Advance: %v", i, err)
				}
				want := PayloadOf(res)

				got.Stats.TimeMilliseconds = 0
				want.Stats.TimeMilliseconds = 0
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("step %d (%s): HTTP payload diverged from in-process Session.Advance\nhttp:       %s\nin-process: %s",
						i, art.Versions[i-1].Name, gotJSON, wantJSON)
				}
				// The chain must really be warm. Step 1 is exempt: a mutant
				// that taints every path (WBS/ASW v1) replays nothing on its
				// first advance — pinned cold==warm above regardless.
				if i > 1 && got.Stats.Memo.MemoStatesReplayed == 0 {
					t.Errorf("step %d: warm chain over HTTP replayed no recorded states", i)
				}
			}
		})
	}
}
