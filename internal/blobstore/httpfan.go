package blobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// PathPrefix is where Handler mounts and where Fan reads from peers:
// blob b of namespace ns lives at <peer>/v1/blobs/<ns>/<key>.
const PathPrefix = "/v1/blobs"

// maxBlobBytes caps a single blob accepted over HTTP (PUT body or
// peer GET response). The largest real blob is a full-scale reference
// trace, tens of MB; 256 MB refuses absurdity without constraining
// any legitimate workload.
const maxBlobBytes = 256 << 20

// Fan is a Store that reads through peer daemons: Get tries the local
// store first, then asks each peer's blob endpoint, writing a peer's
// answer through to the local store so the next lookup is local. Puts,
// Stats, and Lists are local-only — propagation to peers is the
// cluster's job (workers push completed blobs to the coordinator), so
// a fan never recurses through another fan.
//
// Peer bytes are trusted exactly as much as local-disk bytes: not at
// all. Both blob kinds self-verify on decode (trace checksums, gob),
// so a corrupted peer blob becomes a compute fallback, never a wrong
// answer.
type Fan struct {
	local  Store
	peers  func() []string // base URLs, e.g. "http://host:8080"
	client *http.Client

	fetchHit, fetchMiss, fetchErr *metrics.Counter
}

// NewFan wraps local with peer read-through. peers returns the
// current peer base URLs per lookup, so membership may change at any
// time; nil (or an empty result) degrades to the local store alone.
// The dssmem_blob_peer_fetch_total{result} counters land on reg.
func NewFan(local Store, peers func() []string, reg *metrics.Registry) *Fan {
	fetches := reg.CounterVec("dssmem_blob_peer_fetch_total",
		"Blob reads attempted against peer daemons, by outcome.", "result")
	return &Fan{
		local:     local,
		peers:     peers,
		client:    &http.Client{Timeout: 30 * time.Second},
		fetchHit:  fetches.With("hit"),
		fetchMiss: fetches.With("miss"),
		fetchErr:  fetches.With("error"),
	}
}

// Get returns the local blob when present, otherwise the first peer's
// answer (written through to the local store), otherwise ErrNotExist.
func (f *Fan) Get(ns, key string) ([]byte, error) {
	b, err := f.local.Get(ns, key)
	if err == nil {
		return b, nil
	}
	if CheckNS(ns) != nil || CheckKey(key) != nil {
		return nil, err
	}
	var urls []string
	if f.peers != nil {
		urls = f.peers()
	}
	for _, peer := range urls {
		b, ok := f.fetch(peer, ns, key)
		if !ok {
			continue
		}
		f.fetchHit.Inc()
		// Best effort: a failed write-through only costs the next
		// lookup another peer round trip.
		f.local.Put(ns, key, b)
		return b, nil
	}
	return nil, err
}

// GetReader opens the blob for sectioned reads, local first. A peer
// hit is written through to the local store (as in Get) and then
// re-opened locally, so subsequent chunk reads stream from local disk,
// not across the network. Falls back to an in-memory reader when the
// write-through fails.
func (f *Fan) GetReader(ns, key string) (Reader, error) {
	r, err := OpenReader(f.local, ns, key)
	if err == nil {
		return r, nil
	}
	if CheckNS(ns) != nil || CheckKey(key) != nil {
		return nil, err
	}
	var urls []string
	if f.peers != nil {
		urls = f.peers()
	}
	for _, peer := range urls {
		b, ok := f.fetch(peer, ns, key)
		if !ok {
			continue
		}
		f.fetchHit.Inc()
		if f.local.Put(ns, key, b) == nil {
			if r, lerr := OpenReader(f.local, ns, key); lerr == nil {
				return r, nil
			}
		}
		return NewBytesReader(b), nil
	}
	return nil, err
}

// fetch asks one peer for one blob. A 404 is a counted miss, any
// transport or server failure a counted error; both just mean "this
// peer did not answer".
func (f *Fan) fetch(peer, ns, key string) ([]byte, bool) {
	url := strings.TrimSuffix(peer, "/") + PathPrefix + "/" + ns + "/" + key
	resp, err := f.client.Get(url)
	if err != nil {
		f.fetchErr.Inc()
		return nil, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
		if err != nil {
			f.fetchErr.Inc()
			return nil, false
		}
		return b, true
	case resp.StatusCode == http.StatusNotFound:
		f.fetchMiss.Inc()
		return nil, false
	default:
		f.fetchErr.Inc()
		return nil, false
	}
}

// Put stores locally only.
func (f *Fan) Put(ns, key string, b []byte) error { return f.local.Put(ns, key, b) }

// Stat reports the local blob only.
func (f *Fan) Stat(ns, key string) (Info, error) { return f.local.Stat(ns, key) }

// List pages the local namespace only.
func (f *Fan) List(ns, after string, limit int) ([]Info, error) {
	return f.local.List(ns, after, limit)
}

// Handler serves a Store over HTTP under PathPrefix — the server side
// of the fan's wire protocol plus the push target for workers:
//
//	GET  /v1/blobs/{ns}/{key}  blob bytes, 404 on miss
//	HEAD /v1/blobs/{ns}/{key}  existence + Content-Length
//	PUT  /v1/blobs/{ns}/{key}  store a blob (idempotent)
//	GET  /v1/blobs/{ns}        JSON page of Info, ?after=K&limit=N
//
// Mount it on the store a daemon would answer from locally, never on
// a Fan: serving the fan would recurse lookups through the cluster.
func Handler(s Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathPrefix+"/{ns}", func(w http.ResponseWriter, r *http.Request) {
		ns := r.PathValue("ns")
		if err := CheckNS(ns); err != nil {
			blobError(w, http.StatusBadRequest, err)
			return
		}
		limit := 0
		if l := r.URL.Query().Get("limit"); l != "" {
			v, err := strconv.Atoi(l)
			if err != nil || v < 0 {
				blobError(w, http.StatusBadRequest, fmt.Errorf("blobstore: bad limit %q", l))
				return
			}
			limit = v
		}
		infos, err := s.List(ns, r.URL.Query().Get("after"), limit)
		if err != nil {
			blobError(w, http.StatusInternalServerError, err)
			return
		}
		if infos == nil {
			infos = []Info{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(infos)
	})
	mux.HandleFunc(PathPrefix+"/{ns}/{key}", func(w http.ResponseWriter, r *http.Request) {
		ns, key := r.PathValue("ns"), r.PathValue("key")
		if err := CheckNS(ns); err != nil {
			blobError(w, http.StatusBadRequest, err)
			return
		}
		if err := CheckKey(key); err != nil {
			blobError(w, http.StatusBadRequest, err)
			return
		}
		switch r.Method {
		case http.MethodGet:
			b, err := s.Get(ns, key)
			if err != nil {
				blobError(w, statusOf(err), err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			w.Write(b)
		case http.MethodHead:
			info, err := s.Stat(ns, key)
			if err != nil {
				w.WriteHeader(statusOf(err))
				return
			}
			w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
			w.WriteHeader(http.StatusOK)
		case http.MethodPut:
			b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
			if err != nil {
				blobError(w, http.StatusBadRequest, err)
				return
			}
			if err := s.Put(ns, key, b); err != nil {
				blobError(w, http.StatusInternalServerError, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			blobError(w, http.StatusMethodNotAllowed, fmt.Errorf("blobstore: method %s", r.Method))
		}
	})
	return mux
}

func statusOf(err error) int {
	if errors.Is(err, ErrNotExist) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func blobError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
