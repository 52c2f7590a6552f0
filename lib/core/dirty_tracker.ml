let clear backend pt =
  match (backend : Config.dirty_backend) with
  | Config.Soft_dirty -> Mem.Page_table.clear_soft_dirty pt
  | Config.Map_count | Config.Full_compare -> ()

let collect backend pt =
  match (backend : Config.dirty_backend) with
  | Config.Soft_dirty -> Mem.Page_table.soft_dirty_pages pt
  | Config.Map_count -> Mem.Page_table.uniquely_mapped pt
  | Config.Full_compare -> Mem.Page_table.mapped_vpns pt
