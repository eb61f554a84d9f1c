//! Must-not-fire fixture for `page-lifecycle`: freed on every path, escaped into a
//! table, returned to the caller, sealed or shared (refcounted), or freed before the `?`.

pub fn freed_on_every_path(pool: &mut PagePool, cond: bool) {
    let page = pool.alloc_page();
    if cond {
        pool.free_page(page);
    } else {
        pool.free_page(page);
    }
}

pub fn escapes_into_table(pool: &mut PagePool, table: &mut Table) {
    let page = pool.alloc_page();
    table.install(page);
}

pub fn returned_to_caller(pool: &mut PagePool) -> PageEntry {
    let page = pool.alloc_page();
    page
}

pub fn shared_page_is_refcounted(pool: &mut PagePool, id: usize) {
    let shared = pool.share_page(id);
    pool.note_hit(&shared);
}

pub fn sealed_page_is_refcounted(pool: &mut PagePool, entry: PageEntry) {
    let sealed = pool.seal_page(entry);
    pool.note_hit(&sealed);
}

pub fn freed_before_question(pool: &mut PagePool) -> Result<(), PoolError> {
    let page = pool.alloc_page();
    pool.free_page(page);
    pool.flush()?;
    Ok(())
}
