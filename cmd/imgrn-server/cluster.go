// Cluster roles (DESIGN.md §15). The same binary serves all three
// deployment shapes:
//
//	imgrn-server                          # standalone (the default role)
//	imgrn-server -role shard ...          # shard server: hosts a slice of the
//	                                      # global partition and the /cluster/*
//	                                      # execution endpoints
//	imgrn-server -role coordinator ...    # scatter-gather front: owns no data,
//	                                      # fans /query and friends out to the
//	                                      # -shards-at roster
//
// Every process is configured with the same -shards-at roster and
// -replication factor; shard-to-server assignment is implicit (shard g
// lives on servers (g+r) mod S), and source-to-shard placement runs on a
// consistent-hash ring every member derives from the roster size alone —
// so a cluster is defined entirely by flags, no placement service.
package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/server"
)

// clusterFlags carries the cluster-role configuration from main.
type clusterFlags struct {
	role        string
	shardsAt    string
	serverIndex int
	replication int
	hedgeAfter  time.Duration
	floorEvery  time.Duration
	rpcTimeout  time.Duration
	rpcRetries  int
}

// topology resolves the -shards-at roster into the shared cluster shape.
func (cf *clusterFlags) topology() (cluster.Topology, error) {
	var urls []string
	for _, u := range strings.Split(cf.shardsAt, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return cluster.Topology{}, fmt.Errorf("-role %s requires -shards-at (comma-separated shard-server URLs)", cf.role)
	}
	r := cf.replication
	if r <= 0 {
		r = 2
	}
	if r > len(urls) {
		r = len(urls)
	}
	topo := cluster.Topology{Servers: urls, NumShards: len(urls), Replication: r}
	return topo, topo.Validate()
}

// shardSlice is a shard server's part of the cluster: its role (the
// hosted global shards and the shared ring) and the topology.
type shardSlice struct {
	role *server.ShardRole
	topo cluster.Topology
}

// shardSlice resolves the shard-role flags into the global shards this
// server hosts on the shared ring.
func (cf *clusterFlags) shardSlice() *shardSlice {
	topo, err := cf.topology()
	if err != nil {
		fatal(err)
	}
	if cf.serverIndex < 0 || cf.serverIndex >= len(topo.Servers) {
		fatal(fmt.Errorf("-server-index %d out of range [0,%d) for the -shards-at roster", cf.serverIndex, len(topo.Servers)))
	}
	return &shardSlice{
		role: &server.ShardRole{
			NumShards: topo.NumShards,
			Shards:    topo.ServerShards(cf.serverIndex),
			Ring:      cluster.NewRing(topo.NumShards, 0),
		},
		topo: topo,
	}
}

// filter keeps the sources the shared ring places on a hosted global
// shard.
func (sr *shardSlice) filter(db *gene.Database) *gene.Database {
	out := gene.NewDatabase()
	for _, m := range db.Matrices() {
		if slices.Contains(sr.role.Shards, sr.role.Ring.Place(m.Source)) {
			if err := out.Add(m); err != nil {
				fatal(err)
			}
		}
	}
	return out
}

// serveCoordinator boots the coordinator role: a dataless scatter-gather
// front over the -shards-at roster.
func serveCoordinator(cf clusterFlags, addr string,
	queryTimeout time.Duration, maxConcurrent, workers int,
	pprofOn bool, slowQuery, drainTimeout time.Duration, planAdaptive bool) {
	topo, err := cf.topology()
	if err != nil {
		fatal(err)
	}
	srv, err := server.NewCluster(cluster.CoordinatorOptions{
		Topology:   topo,
		Client:     &cluster.Client{Timeout: cf.rpcTimeout, Retries: cf.rpcRetries},
		HedgeAfter: cf.hedgeAfter,
		FloorEvery: cf.floorEvery,
	}, nil)
	if err != nil {
		fatal(err)
	}
	srv.Remote().Start()
	defer srv.Remote().Close()
	fmt.Printf("cluster: coordinator over %d shard servers (P=%d, R=%d)\n",
		len(topo.Servers), topo.NumShards, topo.Replication)
	serve(srv, nil, addr, queryTimeout, maxConcurrent,
		workers, pprofOn, slowQuery, drainTimeout, planAdaptive)
}
